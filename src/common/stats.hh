/**
 * @file
 * Streaming statistics: Welford mean/variance, a sliding request-stats
 * window (the "Stats" block of Fig. 5), and a Hill estimator for the
 * tail index used by the adaptive time-quantum controller
 * (Algorithm 1).
 */

#ifndef PREEMPT_COMMON_STATS_HH
#define PREEMPT_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/histogram.hh"
#include "common/time.hh"

namespace preempt {

/** Numerically-stable streaming mean/variance. */
class RunningStats
{
  public:
    RunningStats() : n_(0), mean_(0), m2_(0) {}

    void
    add(double x)
    {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
    }

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    double stddev() const;

    void reset() { n_ = 0; mean_ = 0; m2_ = 0; }

  private:
    std::uint64_t n_;
    double mean_;
    double m2_;
};

/**
 * Hill estimator of the tail index alpha from the top-k order
 * statistics of a sample. The paper's Algorithm 1 treats
 * 0 <= alpha < 2 as a heavy-tailed regime.
 *
 * The estimate averages log(x_i / x_k) over the tail samples that are
 * actually summable (finite, above the positive threshold x_k) and
 * divides by that count — never by the nominal k — so degenerate
 * samples (zeros, ties at the threshold) cannot bias alpha low.
 *
 * @param samples observation values, any order. Taken by value: the
 *        selection reorders this copy, so pass an lvalue to keep yours
 *        or move a vector in to skip the copy.
 * @param tail_fraction fraction of the largest samples to use.
 * @return estimated alpha, or +inf when there is too little usable
 *         data (fewer than 8 tail samples, or a non-positive
 *         threshold).
 */
double hillTailIndex(std::vector<double> samples,
                     double tail_fraction = 0.05);

/**
 * Nearest-rank percentile: the smallest sample such that at least
 * q * n samples are <= it, i.e. the order statistic at index
 * ceil(q * n) - 1. Matches LatencyHistogram::quantile's rank rule
 * (truncating q * n instead biases small-sample p99/p999 low).
 *
 * @param samples observation values (any order); reordered in place.
 * @param q       quantile in (0, 1].
 * @return the selected sample, or 0 when the sample is empty.
 */
TimeNs percentileNearestRank(std::vector<TimeNs> &samples, double q);

/**
 * Sliding window of completed-request records over a time horizon,
 * feeding the scheduler's control loop with load, median and tail
 * latency, and a tail-index estimate; this is the generic "record past
 * request information" abstraction from section III-B.
 */
class RequestStatsWindow
{
  public:
    /** @param horizon how much history to retain (paper: 10 s). */
    explicit RequestStatsWindow(TimeNs horizon = secToNs(10));

    /** Record a request completion. */
    void onCompletion(TimeNs now, TimeNs latency, TimeNs service_time);

    /** Drop records older than the horizon. */
    void expire(TimeNs now);

    /** Requests completed per second over the retained window. */
    double throughputRps(TimeNs now) const;

    /** Median / p99 latency over the window (ns). */
    TimeNs medianLatency() const;
    TimeNs tailLatency() const;

    /** Tail index of the service-time sample (Hill estimator). */
    double tailIndex() const;

    /** Mean service demand over the window (ns). */
    double meanServiceNs() const;

    std::size_t size() const { return records_.size(); }

    TimeNs horizon() const { return horizon_; }

  private:
    struct Record
    {
        TimeNs time;
        TimeNs latency;
        TimeNs service;
    };

    TimeNs horizon_;
    std::deque<Record> records_;
};

} // namespace preempt

#endif // PREEMPT_COMMON_STATS_HH
