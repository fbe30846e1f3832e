/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 *   perfbench --workload=rt_short --seed=1 --seconds=10 --trace=0
 *             [--trace-dir=DIR]
 *
 * Prints one JSON line with every metric the run measured, its
 * correctness checks and host facts. perfbench/run.py builds this
 * binary and turns that line into the benchmark's result.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "common/cli.hh"
#include "perfbench/report.hh"

namespace perfbench {

void
Report::set(const std::string &name, double value, const char *unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::fail(const std::string &what)
{
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    errors_.push_back(what);
}

namespace {

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

CpuTimes
readCpuTimes()
{
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0)
        return t;
    std::istringstream fields(line.substr(4));
    // user nice system idle iowait irq softirq steal (guest* are
    // already inside user/nice).
    std::uint64_t v = 0;
    for (int i = 0; i < 8 && fields >> v; ++i) {
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

std::string
Report::json(int hostCpus, double stealRatio) const
{
    std::string s = "{\"correct\": ";
    s += correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(tally.attempted);
    s += ", \"failed\": " + std::to_string(tally.failed);
    s += ", \"errors\": [";
    for (std::size_t i = 0; i < errors_.size(); ++i)
        s += (i ? ", " : "") + quoted(errors_[i]);
    s += "], \"host\": {\"host_cpus\": " + std::to_string(hostCpus) +
         ", \"host.steal_ratio\": " + number(stealRatio) + "}";
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        s += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
             number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
    }
    return s + "}}";
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    preempt::CommandLine cli(argc, argv);
    perfbench::Args args;
    args.workload = cli.getString("workload", "");
    args.seed = static_cast<std::uint64_t>(cli.getInt("seed", 1));
    args.seconds = cli.getDouble("seconds", 10);
    args.trace = cli.getInt("trace", 0) != 0;
    args.traceDir = cli.getString("trace-dir", "");
    cli.rejectUnknown();
    if (args.seconds <= 0) {
        std::fprintf(stderr, "perfbench: --seconds must be positive\n");
        return 2;
    }

    perfbench::CpuTimes before = perfbench::readCpuTimes();
    perfbench::Report report;
    if (!perfbench::runRuntimeWorkload(args, report) &&
        !perfbench::runSimWorkload(args, report)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    double steal = perfbench::stealRatio(before, perfbench::readCpuTimes());
    long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
    std::printf("%s\n",
                report.json(static_cast<int>(cpus), steal).c_str());
    return 0;
}
