#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace preempt {

double
RunningStats::stddev() const
{
    double v = variance();
    return v > 0 ? std::sqrt(v) : 0.0;
}

double
hillTailIndex(std::vector<double> samples, double tail_fraction)
{
    fatal_if(tail_fraction <= 0 || tail_fraction >= 1,
             "tail_fraction must be in (0,1)");
    std::size_t n = samples.size();
    std::size_t k = static_cast<std::size_t>(
        static_cast<double>(n) * tail_fraction);
    if (k < 8)
        return std::numeric_limits<double>::infinity();

    // Select in the by-value copy: a caller that passes an lvalue keeps
    // its sample order, one that moves a vector in pays no copy.
    auto thresholdIt = samples.begin() + static_cast<long>(n - k - 1);
    std::nth_element(samples.begin(), thresholdIt, samples.end());
    // x_(n-k) is the threshold order statistic.
    double xk = *thresholdIt;
    if (xk <= 0)
        return std::numeric_limits<double>::infinity();
    double sum = 0;
    std::size_t summed = 0;
    for (auto it = thresholdIt + 1; it != samples.end(); ++it) {
        if (!(*it > 0) || !std::isfinite(*it))
            continue;
        sum += std::log(*it / xk);
        ++summed;
    }
    if (summed == 0 || sum <= 0)
        return std::numeric_limits<double>::infinity();
    return static_cast<double>(summed) / sum;
}

TimeNs
percentileNearestRank(std::vector<TimeNs> &samples, double q)
{
    fatal_if(q <= 0 || q > 1, "quantile must be in (0,1]");
    if (samples.empty())
        return 0;
    std::size_t n = samples.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::min(std::max<std::size_t>(rank, 1), n);
    std::size_t idx = rank - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<long>(idx),
                     samples.end());
    return samples[idx];
}

RequestStatsWindow::RequestStatsWindow(TimeNs horizon) : horizon_(horizon)
{
    fatal_if(horizon == 0, "stats window horizon must be > 0");
}

void
RequestStatsWindow::onCompletion(TimeNs now, TimeNs latency,
                                 TimeNs service_time)
{
    records_.push_back({now, latency, service_time});
    expire(now);
}

void
RequestStatsWindow::expire(TimeNs now)
{
    TimeNs cutoff = now > horizon_ ? now - horizon_ : 0;
    while (!records_.empty() && records_.front().time < cutoff)
        records_.pop_front();
}

double
RequestStatsWindow::throughputRps(TimeNs now) const
{
    if (records_.empty())
        return 0.0;
    TimeNs span = std::min<TimeNs>(horizon_, now);
    if (span == 0)
        return 0.0;
    return static_cast<double>(records_.size()) / nsToSec(span);
}

TimeNs
RequestStatsWindow::medianLatency() const
{
    if (records_.empty())
        return 0;
    std::vector<TimeNs> lat;
    lat.reserve(records_.size());
    for (const auto &r : records_)
        lat.push_back(r.latency);
    std::size_t mid = lat.size() / 2;
    std::nth_element(lat.begin(), lat.begin() + static_cast<long>(mid),
                     lat.end());
    return lat[mid];
}

TimeNs
RequestStatsWindow::tailLatency() const
{
    if (records_.empty())
        return 0;
    std::vector<TimeNs> lat;
    lat.reserve(records_.size());
    for (const auto &r : records_)
        lat.push_back(r.latency);
    // Nearest rank, not a truncated q*n index: truncation reports the
    // order statistic below the true p99 on small windows (e.g. the
    // maximum of 100 samples vs. the 100th of 101).
    return percentileNearestRank(lat, 0.99);
}

double
RequestStatsWindow::meanServiceNs() const
{
    if (records_.empty())
        return 0.0;
    double sum = 0;
    for (const auto &r : records_)
        sum += static_cast<double>(r.service);
    return sum / static_cast<double>(records_.size());
}

double
RequestStatsWindow::tailIndex() const
{
    std::vector<double> service;
    service.reserve(records_.size());
    for (const auto &r : records_)
        service.push_back(static_cast<double>(r.service));
    return hillTailIndex(std::move(service));
}

} // namespace preempt
