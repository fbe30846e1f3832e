/**
 * @file
 * sim_fig08: the Fig. 8 systems in the calibrated simulator, run one
 * cell at a time on the calling thread (no exp::Harness parallelism).
 *
 * A round runs every cell once: LibPreemptible (adaptive), Shinjuku,
 * Libinger and LibPreemptible without UINTR, each on workload A1
 * (0.5% of requests are 500 us: preemption-heavy) and on workload B
 * (exponential, 5 us mean: preemption-light), at one load each from
 * fig08_comparison's grid. Rounds repeat until --seconds have passed;
 * every round re-runs the same seeded cells, so each round's simulated
 * statistics must equal the first round's bit for bit. Host throughput
 * is the median, over all rounds, of simulated requests completed per
 * CPU second of the simulating thread (report.hh threadCpuNs), divided
 * by the host speed measured after the round (hostSpeed). That thread
 * never sleeps, and its CPU time leaves out the steal that slows it by
 * up to a fifth on a busy host. Latency is simulated and exact for a
 * seed. Every host time below is that thread's CPU time, except set-up
 * and the per-call onArrival timing, which are wall time; set-up is
 * multiplied by the host speed measured after it.
 *
 * With --trace=1 untraced and traced rounds alternate. A traced round
 * times each cell and each ServerModel::onArrival call from the
 * benchmark's own arrival callback; nothing under src/ is changed.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <sched.h>
#include <string>
#include <utility>
#include <vector>

#include "baselines/libinger_sim.hh"
#include "baselines/shinjuku_sim.hh"
#include "hw/latency_config.hh"
#include "perfbench/report.hh"
#include "runtime_sim/libpreemptible_sim.hh"
#include "runtime_sim/server.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/spec.hh"

namespace perfbench {
namespace {

using preempt::TimeNs;
using preempt::usToNs;
using preempt::msToNs;

struct System
{
    const char *key;
    const char *layer; ///< per-layer metric of its CPU seconds
    TimeNs quantum;
    bool adaptive;
};

// The four systems of fig08_comparison, with its quanta.
const System kSystems[] = {
    {"libpreemptible", "runtime_sim.libpreemptible_s", usToNs(5), true},
    {"shinjuku", "baselines.shinjuku_s", usToNs(5), false},
    {"libinger", "baselines.libinger_s", usToNs(60), false},
    {"nouintr", "runtime_sim.nouintr_s", usToNs(5), false},
};

struct Load
{
    const char *workload;
    double rps; ///< a point of fig08_comparison's grid for the workload
};

const Load kLoads[] = {{"A1", 900e3}, {"B", 400e3}};

constexpr int kWorkers = 4;                 ///< LibPreemptible workers
constexpr TimeNs kCellDuration = msToNs(100); ///< arrivals per cell
constexpr TimeNs kDrain = msToNs(200);       ///< completion horizon after
constexpr TimeNs kWarmupDuration = msToNs(5);
constexpr int kSetups = 45;
constexpr std::uint64_t kRefEvents = 300000; ///< events per speed probe
constexpr double kRefEventsPerS = 20e6;      ///< nominal probe speed

struct Cell
{
    const System *system;
    const Load *load;
};

std::vector<Cell>
cells()
{
    std::vector<Cell> out;
    for (const Load &l : kLoads)
        for (const System &s : kSystems)
            out.push_back({&s, &l});
    return out;
}

std::unique_ptr<preempt::runtime_sim::ServerModel>
makeServer(preempt::sim::Simulator &sim, const preempt::hw::LatencyConfig &cfg,
           const System &s)
{
    std::string key = s.key;
    if (key == "shinjuku") {
        preempt::baselines::ShinjukuConfig c;
        c.nWorkers = kWorkers + 1; // no timer core
        c.quantum = s.quantum;
        return std::make_unique<preempt::baselines::ShinjukuSim>(sim, cfg, c);
    }
    if (key == "libinger") {
        preempt::baselines::LibingerConfig c;
        c.nWorkers = kWorkers + 1;
        c.quantum = s.quantum;
        return std::make_unique<preempt::baselines::LibingerSim>(sim, cfg, c);
    }
    preempt::runtime_sim::LibPreemptibleConfig c;
    c.nWorkers = kWorkers;
    c.quantum = s.quantum;
    c.adaptive = s.adaptive;
    c.controllerParams.period = msToNs(50);
    c.statsHorizon = msToNs(50);
    if (key == "nouintr")
        c.delivery = preempt::runtime_sim::TimerDelivery::KernelSignal;
    return std::make_unique<preempt::runtime_sim::LibPreemptibleSim>(sim, cfg,
                                                                     c);
}

/** Everything a cell's simulated run produced; equal across rounds. */
struct Outcome
{
    std::uint64_t generated = 0, arrived = 0, completed = 0, cancelled = 0,
                  rejected = 0, doneInPool = 0, preemptions = 0, events = 0;
    TimeNs overheadNs = 0, executionNs = 0;
    std::vector<std::uint64_t> lcLatency; ///< exact LC latencies (ns)

    bool operator==(const Outcome &) const = default;
};

struct CellRun
{
    Outcome outcome;
    double cpuS = 0;
    std::uint64_t arrivalNs = 0; ///< host time inside onArrival (timed)
};

/** Build a cell, run it to `duration` + drain, and read it out. */
CellRun
runCell(const Cell &c, std::uint64_t seed, TimeNs duration, bool timed)
{
    CellRun run;
    std::uint64_t start = threadCpuNs();
    {
        preempt::sim::Simulator sim(seed);
        auto server = makeServer(
            sim, preempt::hw::LatencyConfig::paperCalibrated(), *c.system);
        preempt::workload::WorkloadSpec spec{
            preempt::workload::makeServiceLaw(c.load->workload, duration),
            preempt::workload::RateLaw::constant(c.load->rps), duration};
        preempt::workload::OpenLoopGenerator gen(
            sim, std::move(spec), [&](preempt::workload::Request &r) {
                if (!timed) {
                    server->onArrival(r);
                    return;
                }
                std::uint64_t t = nowNs();
                server->onArrival(r);
                run.arrivalNs += nowNs() - t;
            });
        gen.start();
        sim.runUntil(duration + kDrain);

        const preempt::workload::RunMetrics &m = server->metrics();
        Outcome &o = run.outcome;
        o.generated = gen.generated();
        o.arrived = m.arrived();
        o.completed = m.completed();
        o.cancelled = m.cancelled();
        o.rejected = m.rejected();
        o.preemptions = m.totalPreemptions();
        o.events = sim.eventsRun();
        o.overheadNs = m.preemptionOverheadNs();
        o.executionNs = m.executionNs();
        for (const preempt::workload::Request &r : gen.pool()) {
            if (!r.done())
                continue;
            ++o.doneInPool;
            if (r.cls == preempt::workload::RequestClass::LatencyCritical)
                o.lcLatency.push_back(r.latency());
        }
    }
    run.cpuS = static_cast<double>(threadCpuNs() - start) / 1e9;
    return run;
}

/**
 * Pins the calling thread, before each round, to the CPU of the
 * process's affinity mask on which a short cache-bound probe runs
 * fastest, and restores the mask when destroyed. On a shared host the
 * simulator's speed on a CPU swings by tens of percent with what other
 * tenants run on its core, while a register-only loop does not move;
 * the probe finds the CPU least disturbed right now.
 */
class QuietCpu
{
  public:
    QuietCpu() : chain_(kProbeWords)
    {
        CPU_ZERO(&initial_);
        if (::sched_getaffinity(0, sizeof initial_, &initial_) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &initial_))
                    cpus_.push_back(c);
        // One random cycle through the buffer: every load depends on
        // the previous one and misses L1.
        std::vector<std::uint32_t> order(kProbeWords);
        for (std::uint32_t i = 0; i < kProbeWords; ++i)
            order[i] = i;
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::uint32_t i = kProbeWords - 1; i > 0; --i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            std::swap(order[i], order[(x >> 33) % (i + 1)]);
        }
        for (std::uint32_t i = 0; i < kProbeWords; ++i)
            chain_[order[i]] = order[(i + 1) % kProbeWords];
    }

    ~QuietCpu()
    {
        if (!cpus_.empty())
            ::sched_setaffinity(0, sizeof initial_, &initial_);
    }

    QuietCpu(const QuietCpu &) = delete;
    QuietCpu &operator=(const QuietCpu &) = delete;

    void
    pick()
    {
        int best = -1;
        std::uint64_t bestNs = ~std::uint64_t{0};
        for (int c : cpus_) {
            pin(c);
            std::uint64_t ns = probe();
            if (ns < bestNs) {
                bestNs = ns;
                best = c;
            }
        }
        if (best >= 0)
            pin(best);
    }

  private:
    static constexpr std::uint32_t kProbeWords = 1 << 18; // 1 MiB
    static constexpr int kProbeLoads = 200000;

    static void
    pin(int cpu)
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ::sched_setaffinity(0, sizeof one, &one);
    }

    std::uint64_t
    probe()
    {
        std::uint32_t j = 0;
        std::uint64_t t = nowNs();
        for (int i = 0; i < kProbeLoads; ++i)
            j = chain_[j];
        std::uint64_t ns = nowNs() - t;
        sink_ = j;
        return ns;
    }

    cpu_set_t initial_;
    std::vector<int> cpus_;
    std::vector<std::uint32_t> chain_;
    volatile std::uint32_t sink_ = 0;
};

/**
 * How fast this CPU runs event-loop code right now, relative to a
 * nominal host: a fixed discrete-event loop (exponential arrivals, a
 * FIFO, 4 servers, a binary-heap event queue; ~15 ms), written here so
 * that no change under src/ moves it, timed in thread CPU time and
 * divided by kRefEventsPerS.
 *
 * On a shared host the simulator's speed drifts with what the other
 * tenants run, by over 30% within a minute and with no steal to show
 * for it, and this probe drifts with it (in one 90 s run the
 * simulator's rate fell to 0.66 of its start, the rate divided by this
 * speed to 0.88). The simulator's host figures are divided by the
 * speed measured beside them, so they track the code, not the host.
 */
double
hostSpeed()
{
    struct Event
    {
        double t;
        bool arrival;
    };
    auto later = [](const Event &a, const Event &b) { return a.t > b.t; };
    std::vector<Event> heap{{0, true}};
    std::vector<double> fifo;
    std::size_t head = 0;
    int idle = 4;
    double waited = 0;
    std::uint64_t x = 0x853c49e6748fea9bULL;
    auto exponential = [&](double mean) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        double u = (static_cast<double>(x >> 11) + 0.5) / 9007199254740992.0;
        return -std::log(u) * mean;
    };
    std::uint64_t start = threadCpuNs();
    for (std::uint64_t n = 0; n < kRefEvents; ++n) {
        std::pop_heap(heap.begin(), heap.end(), later);
        Event e = heap.back();
        heap.pop_back();
        if (e.arrival) {
            heap.push_back({e.t + exponential(0.26), true});
            std::push_heap(heap.begin(), heap.end(), later);
            fifo.push_back(e.t);
        } else {
            ++idle;
        }
        for (; idle > 0 && head < fifo.size(); --idle) {
            waited += e.t - fifo[head++];
            heap.push_back({e.t + exponential(1.0), false});
            std::push_heap(heap.begin(), heap.end(), later);
        }
    }
    double s = static_cast<double>(threadCpuNs() - start) / 1e9;
    // `waited` keeps the loop from being optimised away.
    return waited < 0 ? 0 : static_cast<double>(kRefEvents) / s /
                                kRefEventsPerS;
}

std::size_t
cellIndex(const std::vector<Cell> &grid, const std::string &system,
          const std::string &workload)
{
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (grid[i].system->key == system && grid[i].load->workload == workload)
            return i;
    return 0;
}

/** Per-cell conservation: every generated request is accounted for. */
void
checkCell(const Cell &c, const Outcome &o, Report &out)
{
    std::string name = std::string(c.system->key) + "/" + c.load->workload;
    out.check(o.arrived == o.generated,
              name + ": model saw " + std::to_string(o.arrived) +
                  " arrivals of " + std::to_string(o.generated));
    out.check(o.doneInPool == o.completed,
              name + ": " + std::to_string(o.doneInPool) +
                  " requests done but the model counted " +
                  std::to_string(o.completed));
    out.check(o.completed + o.cancelled + o.rejected <= o.arrived,
              name + ": more requests finished than arrived");
}

} // namespace

bool
runSimWorkload(const Args &args, Report &out)
{
    if (args.workload != "sim_fig08")
        return false;
    const std::vector<Cell> grid = cells();

    // Set-up: build every cell's model and run its first few simulated
    // ms (allocator and queue warm-up); timed kSetups times.
    QuietCpu quiet;
    std::vector<double> setupS;
    for (int i = 0; i < kSetups; ++i) {
        quiet.pick();
        std::uint64_t t = nowNs();
        for (const Cell &c : grid)
            runCell(c, args.seed, kWarmupDuration, false);
        double wall = static_cast<double>(nowNs() - t) / 1e9;
        setupS.push_back(wall * hostSpeed());
    }

    const int minRounds = args.trace ? 4 : 2;
    std::vector<Outcome> first; // round 0, the reference
    // Per untraced round: rate; per traced round: rate and ns per event
    // (all, A1, B).
    std::vector<double> ops, tOps, nsPerEvent, nsPerEventA1, nsPerEventB;
    std::vector<double> systemS(std::size(kSystems), 0.0);
    double tracedS = 0;
    std::uint64_t arrivalNs = 0, arrivals = 0;
    std::uint64_t begin = nowNs();
    for (int round = 0;
         round < minRounds ||
         static_cast<double>(nowNs() - begin) / 1e9 < args.seconds;
         ++round) {
        bool traced = args.trace && round % 2 == 1;
        quiet.pick();
        std::uint64_t roundStart = threadCpuNs();
        std::uint64_t completed = 0, events = 0;
        double hostA1 = 0, hostB = 0;
        std::uint64_t eventsA1 = 0, eventsB = 0;
        // Each cell's share of the round runs from the previous cell's
        // end, checks included, so the shares add up to the round.
        std::uint64_t mark = roundStart;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const Cell &c = grid[i];
            CellRun run = runCell(c, args.seed, kCellDuration, traced);
            const Outcome &o = run.outcome;
            completed += o.completed;
            events += o.events;
            bool a1 = std::string(c.load->workload) == "A1";
            (a1 ? hostA1 : hostB) += run.cpuS;
            (a1 ? eventsA1 : eventsB) += o.events;
            if (round == 0) {
                checkCell(c, o, out);
                out.tally.add(o.generated, o.generated - o.rejected,
                              o.completed);
                first.push_back(o);
            } else if (!(o == first[i])) {
                out.fail(std::string(c.system->key) + "/" +
                         c.load->workload + ": round " +
                         std::to_string(round) +
                         " differs from round 0 under the same seed");
            }
            std::uint64_t now = threadCpuNs();
            if (traced) {
                systemS[static_cast<std::size_t>(c.system - kSystems)] +=
                    static_cast<double>(now - mark) / 1e9;
                arrivalNs += run.arrivalNs;
                arrivals += o.generated;
            }
            mark = now;
        }
        double roundS =
            static_cast<double>(threadCpuNs() - roundStart) / 1e9;
        double rate = static_cast<double>(completed) / roundS / hostSpeed();
        if (!traced) {
            ops.push_back(rate);
            continue;
        }
        tOps.push_back(rate);
        tracedS += roundS;
        nsPerEvent.push_back(roundS * 1e9 / static_cast<double>(events));
        nsPerEventA1.push_back(hostA1 * 1e9 / static_cast<double>(eventsA1));
        nsPerEventB.push_back(hostB * 1e9 / static_cast<double>(eventsB));
    }

    std::uint64_t requests = 0, events = 0;
    for (const Outcome &o : first) {
        requests += o.completed;
        events += o.events;
    }
    // Simulated LC latency of the LibPreemptible cells. B's is the
    // end-to-end figure: A1's tail hangs on how its few 500 us requests
    // cluster, so it moves by tens of percent from seed to seed.
    Outcome &a1 = first[cellIndex(grid, "libpreemptible", "A1")];
    Outcome &b = first[cellIndex(grid, "libpreemptible", "B")];
    out.check(tailResolved(a1.lcLatency.size(), 0.99) &&
                  tailResolved(b.lcLatency.size(), 0.99),
              "libpreemptible: fewer than 1000 LC latency samples");

    // Host-time figures: medians over all rounds. The simulator runs
    // about a third faster while the host's other tenants are quiet,
    // which is also when no steal shows; a median over the least-stolen
    // half would jump to that speed whenever a run caught a quiet spell,
    // the median of all rounds only when most of the run did.
    out.set("setup_s", median(setupS), "s");
    out.set("ops_per_s", median(ops), "1/s");
    out.set("lat_p50_us", quantile(b.lcLatency, 0.50) / 1e3, "us");
    out.set("lat_p99_us", quantile(b.lcLatency, 0.99) / 1e3, "us");
    out.set("fail_ratio", out.tally.ratio(), "ratio");
    if (!args.trace)
        return true;

    out.set("runtime_sim.a1_lat_p50_us", quantile(a1.lcLatency, 0.50) / 1e3,
            "us");
    out.set("runtime_sim.a1_lat_p99_us", quantile(a1.lcLatency, 0.99) / 1e3,
            "us");

    double systemsS = 0;
    for (std::size_t i = 0; i < std::size(kSystems); ++i) {
        out.set(kSystems[i].layer, systemS[i], "s");
        systemsS += systemS[i];
    }
    // The per-system seconds must account for the traced rounds.
    out.check(systemsS <= tracedS && systemsS >= 0.99 * tracedS,
              "per-system CPU seconds " + std::to_string(systemsS) +
                  " do not add up to the traced rounds' " +
                  std::to_string(tracedS));
    out.set("sim.traced_s", tracedS, "s");
    out.set("sim.events", static_cast<double>(events), "count");
    out.set("sim.events_per_request",
            static_cast<double>(events) / static_cast<double>(requests),
            "1/request");
    out.set("sim.ns_per_event", median(nsPerEvent), "ns");
    out.set("sim.ns_per_event.A1", median(nsPerEventA1), "ns");
    out.set("sim.ns_per_event.B", median(nsPerEventB), "ns");
    out.set("runtime_sim.arrival_ns",
            arrivals == 0 ? 0
                          : static_cast<double>(arrivalNs) /
                                static_cast<double>(arrivals),
            "ns");
    out.set("runtime_sim.preemptions", static_cast<double>(a1.preemptions),
            "count");
    out.set("runtime_sim.overhead_ratio",
            a1.executionNs == 0
                ? 0
                : static_cast<double>(a1.overheadNs) /
                      static_cast<double>(a1.executionNs),
            "ratio");
    double tracedOps = median(tOps);
    out.set("trace_overhead_ratio",
            tracedOps > 0 ? median(ops) / tracedOps : 0,
            "ratio");
    return true;
}

} // namespace perfbench
