/**
 * @file
 * What one benchmark run hands back to run.py: pass/fail checks, the
 * attempted/failed tally, host facts, and every metric it measured.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "perfbench/stats.hh"

namespace perfbench {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where a traced run writes its per-task timestamps ("" = none). */
    std::string traceDir;
};

class Report
{
  public:
    /** Record a metric under a name not used before. */
    void set(const std::string &name, double value, const char *unit);

    /** Record a failed correctness check; the run is then incorrect. */
    void fail(const std::string &what);

    /** Check `ok`, recording `what` when it does not hold. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            fail(what);
    }

    bool correct() const { return errors_.empty(); }

    Tally tally;

    /** One JSON object on one line; run.py turns it into the result. */
    std::string json(int hostCpus, double stealRatio) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> errors_;
};

/** Host clock in ns (CLOCK_MONOTONIC, as the runtime uses). */
inline std::uint64_t
nowNs()
{
    timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/**
 * CPU time of the calling thread in ns. The guest kernel leaves out
 * time the hypervisor stole (paravirtual steal accounting), so for a
 * thread that never sleeps this is its wall time minus the time its
 * CPU ran another tenant or another thread.
 */
inline std::uint64_t
threadCpuNs()
{
    timespec ts;
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** Steal and total jiffies of all CPUs, from /proc/stat. */
struct CpuTimes
{
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};

CpuTimes readCpuTimes();

/** Share of the CPU time between two readings that was stolen. */
inline double
stealRatio(const CpuTimes &before, const CpuTimes &after)
{
    return after.total > before.total
               ? static_cast<double>(after.steal - before.steal) /
                     static_cast<double>(after.total - before.total)
               : 0.0;
}

/** Fill `out` for a runtime workload; false if the name is unknown. */
bool runRuntimeWorkload(const Args &args, Report &out);

/** Fill `out` for a simulator workload; false if the name is unknown. */
bool runSimWorkload(const Args &args, Report &out);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
