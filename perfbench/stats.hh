/**
 * @file
 * The benchmark's own arithmetic, kept free of timing and threads so
 * selftest.cc can check it: percentiles and how many samples a
 * percentile needs, medians over phases, the latency split and its
 * residual, the gap detector that finds preemptions
 * inside a spinning task, and the attempted/failed tally.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/** Samples a percentile needs beyond it before it is reported. */
inline constexpr std::size_t kTailSamples = 10;

/**
 * True when at least kTailSamples of n samples lie above the q-th
 * quantile (q in [0, 1)); p99 therefore needs n >= 1000.
 */
inline bool
tailResolved(std::size_t n, double q)
{
    // Round away the representation error of 1 - q (0.01 is inexact).
    double beyond = std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9);
    return beyond >= static_cast<double>(kTailSamples);
}

/**
 * Nearest-rank quantile: the smallest sample with at least q*n samples
 * at or below it. Reorders `v`. Returns 0 for an empty vector.
 */
template <typename T>
double
quantile(std::vector<T> &v, double q)
{
    if (v.empty())
        return 0;
    double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
    std::size_t k = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    k = std::min(k, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return static_cast<double>(v[k]);
}

/** Median of per-phase values (lower median for an even count). */
inline double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/**
 * Median of `f(item)` over every item (phase or round). A run's figure
 * is this median, not a mean, and keeps every phase: on a shared host
 * the other tenants slow some phases and, in quiet spells, speed some
 * up, and the median moves only when most of the run did.
 */
template <typename T, typename F>
double
medianOf(const std::vector<T> &items, F f)
{
    std::vector<double> v;
    v.reserve(items.size());
    for (const T &item : items)
        v.push_back(f(item));
    return median(std::move(v));
}

/** Mean time of an LC task in each stage between submit and finish. */
struct Split
{
    double submit = 0;    ///< submit() call
    double queueWait = 0; ///< submit() returned -> body's first timestamp
    double body = 0;      ///< body's first -> last timestamp

    double total() const { return submit + queueWait + body; }
};

/**
 * Share of `latency` the split does not account for:
 * (latency - split.total()) / latency. Near 0 when the stages measured
 * in the traced run add up to the latency of the untraced run; negative
 * when tracing made the stages slower than the untraced latency.
 */
inline double
splitResidual(double latency, const Split &split)
{
    return latency == 0 ? 0 : (latency - split.total()) / latency;
}

/**
 * Splits the wall time of a spinning task into running slices and the
 * pauses between them. The task calls tick() with the clock on every
 * loop iteration; a step longer than `gapNs` is a pause (the task was
 * preempted or the thread descheduled), anything shorter is running
 * time. Allocation-free: a preemptible body must not call malloc.
 */
class SliceClock
{
  public:
    static constexpr std::size_t kMaxSlices = 64;

    SliceClock(std::uint64_t start, std::uint64_t gapNs)
        : gapNs_(gapNs), last_(start), sliceStart_(start)
    {
    }

    /** Feed the current time. @return true when a pause just ended. */
    bool
    tick(std::uint64_t now)
    {
        std::uint64_t step = now - last_;
        last_ = now;
        if (step <= gapNs_) {
            running_ += step;
            return false;
        }
        if (pauses_ < kMaxSlices) {
            slice_[pauses_] = now - step - sliceStart_;
            pause_[pauses_] = step;
        }
        ++pauses_;
        sliceStart_ = now;
        return true;
    }

    /** Running time so far (pauses excluded). */
    std::uint64_t running() const { return running_; }

    /** Pauses seen; slice(i) is the slice that ended at pause i. */
    std::size_t pauses() const { return pauses_; }
    std::size_t recorded() const { return std::min(pauses_, kMaxSlices); }
    std::uint64_t slice(std::size_t i) const { return slice_[i]; }
    std::uint64_t pause(std::size_t i) const { return pause_[i]; }

  private:
    std::uint64_t gapNs_;
    std::uint64_t last_;
    std::uint64_t sliceStart_;
    std::uint64_t running_ = 0;
    std::size_t pauses_ = 0;
    std::uint64_t slice_[kMaxSlices] = {};
    std::uint64_t pause_[kMaxSlices] = {};
};

/** Operations attempted and failed, summed over phases or cells. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /**
     * Count one batch: `sent` operations tried, of which `accepted`
     * were taken and `finished` of those ran to completion. A refused
     * operation and one never finished both count as failed.
     */
    void
    add(std::uint64_t sent, std::uint64_t accepted, std::uint64_t finished)
    {
        attempted += sent;
        failed += (sent - std::min(accepted, sent)) +
                  (accepted - std::min(finished, accepted));
    }

    double
    ratio() const
    {
        return attempted == 0 ? 0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted);
    }
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
