/**
 * @file
 * Ablation: sensitivity of the headline result (Fig. 8 tail gap) to
 * the calibrated latency constants. The UINTR delivery cost and the
 * Shinjuku IPI/trap cost are scaled up and down; the claim "who wins
 * and by roughly what factor" should be robust across the range.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/cli.hh"
#include "obs/session.hh"
#include "common/table.hh"

using namespace preempt;
using preempt::bench::RunSpec;

namespace {

/** The spec with its floor and mean jitter scaled (std unchanged). */
hw::JitterSpec
scaled(const hw::JitterSpec &j, double scale)
{
    return hw::JitterSpec{j.floorNs() * scale, j.meanNs() * scale,
                          j.stdNs()};
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv);
    obs::Session obsSession(cli);
    double rps = cli.getDouble("rps", 1000e3);
    TimeNs duration = msToNs(cli.getDouble("duration-ms", 250));
    cli.rejectUnknown();

    ConsoleTable table("Ablation: p99 (us) on A1 @ " +
                       ConsoleTable::num(rps / 1e3, 0) +
                       " kRPS under scaled mechanism costs");
    table.header({"cost scale", "LibPreemptible", "Shinjuku",
                  "tail gap"});
    for (double scale : {0.5, 1.0, 2.0, 4.0}) {
        hw::LatencyConfig cfg;
        cfg.uintrRunning = scaled(cfg.uintrRunning, scale);
        cfg.senduipiCost = static_cast<TimeNs>(
            static_cast<double>(cfg.senduipiCost) * scale);
        cfg.postedIpiDelivery = scaled(cfg.postedIpiDelivery, scale);
        cfg.shinjukuTrapCost = static_cast<TimeNs>(
            static_cast<double>(cfg.shinjukuTrapCost) * scale);

        RunSpec lib;
        lib.system = "libpreemptible";
        lib.workload = "A1";
        lib.rps = rps;
        lib.quantum = usToNs(5);
        lib.duration = duration;
        auto lo = preempt::bench::runOne(lib, cfg);

        RunSpec shj = lib;
        shj.system = "shinjuku";
        auto so = preempt::bench::runOne(shj, cfg);

        table.row({ConsoleTable::num(scale, 1) + "x",
                   preempt::bench::fmtUs(lo.p99),
                   preempt::bench::fmtUs(so.p99),
                   ConsoleTable::num(static_cast<double>(so.p99) /
                                         static_cast<double>(lo.p99),
                                     1) + "x"});
    }
    table.print();
    std::printf("\nexpected: LibPreemptible keeps a large tail advantage "
                "at every scale; the gap grows with mechanism cost.\n");
    return 0;
}
