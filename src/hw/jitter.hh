/**
 * @file
 * Latency jitter specification used by all hardware cost models.
 *
 * Measured interrupt/IPC latencies have a hard floor (the fast path)
 * plus a right-skewed tail. We model each as
 * floor + LogNormal(mean, std), with the log-normal moments matched to
 * the calibration target, so simulated min/avg/std land on the
 * measured values by construction.
 */

#ifndef PREEMPT_HW_JITTER_HH
#define PREEMPT_HW_JITTER_HH

#include <cmath>

#include "common/rng.hh"
#include "common/time.hh"

namespace preempt::hw {

/**
 * floor + log-normal jitter with calibrated mean/std (nanoseconds).
 *
 * The log-normal's mu and sigma depend only on the spec, so the
 * constructor computes them once, with the expressions of the
 * per-draw formula: every draw is bit-identical to evaluating that
 * formula in full (Jitter.PrecomputedMomentsMatchPerDrawFormula). The
 * spec is immutable so they cannot go stale; build a new one to change
 * it.
 */
class JitterSpec
{
  public:
    /** No jitter: every sample is 0. */
    JitterSpec() = default;

    /**
     * @param floor_ns minimum achievable latency
     * @param mean_ns  mean of the jitter above the floor; <= 0 means
     *                 every sample is exactly the floor
     * @param std_ns   standard deviation of the jitter; 0 means a
     *                 quarter of the mean
     */
    JitterSpec(double floor_ns, double mean_ns, double std_ns)
        : floorNs_(floor_ns), meanNs_(mean_ns), stdNs_(std_ns)
    {
        if (mean_ns <= 0)
            return;
        double m = mean_ns;
        double s = std_ns > 0 ? std_ns : m * 0.25;
        double sigma2 = std::log(1.0 + (s * s) / (m * m));
        mu_ = std::log(m) - 0.5 * sigma2;
        sigma_ = std::sqrt(sigma2);
    }

    double floorNs() const { return floorNs_; }
    double meanNs() const { return meanNs_; }
    double stdNs() const { return stdNs_; }

    /** Expected value of a sample. */
    double expectedNs() const { return floorNs_ + meanNs_; }

    /** Draw one latency sample. */
    TimeNs
    sample(Rng &rng) const
    {
        if (meanNs_ <= 0)
            return static_cast<TimeNs>(floorNs_);
        // Box-Muller normal draw.
        double u1 = 1.0 - rng.uniform();
        double u2 = rng.uniform();
        double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * M_PI * u2);
        double v = floorNs_ + std::exp(mu_ + sigma_ * z);
        return v <= 0 ? 0 : static_cast<TimeNs>(v + 0.5);
    }

  private:
    double floorNs_ = 0;
    double meanNs_ = 0;
    double stdNs_ = 0;
    double mu_ = 0;    ///< log-normal location, from mean/std
    double sigma_ = 0; ///< log-normal scale, from mean/std
};

} // namespace preempt::hw

#endif // PREEMPT_HW_JITTER_HH
