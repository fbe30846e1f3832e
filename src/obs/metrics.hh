/**
 * @file
 * Named metrics registry: counters, gauges, and histogram-backed
 * timers, with a one-call JSON dump.
 *
 * Registration is by name; returned references stay valid for the
 * registry's lifetime (values live behind unique_ptrs in a map).
 * Per-core timers registered through timerPerCore() form a family
 * ("name/coreN"): the JSON dump also emits the machine-wide merge of
 * each family via LatencyHistogram::merge, which is how per-core
 * delivery-latency quantiles become whole-run quantiles.
 *
 * Like tracing (obs/trace.hh), a registry is installed process-wide;
 * the free helpers (addCount etc.) are no-ops when none is installed.
 */

#ifndef PREEMPT_OBS_METRICS_HH
#define PREEMPT_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/windowed_histogram.hh"

namespace preempt::obs {

/** Monotonic event count. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1) noexcept
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written instantaneous value. */
class Gauge
{
  public:
    void
    set(std::int64_t v) noexcept
    {
        value_.store(v, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Latency-histogram-backed timer (values in nanoseconds).
 *
 * The lifetime histogram only accumulates. When windowing is enabled
 * (the telemetry publisher does so for its registry), every record()
 * also lands in a sliding-window companion whose epochs the publisher
 * rotates each tick, so windowHistogram() quantiles reflect only the
 * last W seconds of traffic.
 */
class TimerMetric
{
  public:
    void
    record(std::uint64_t ns)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hist_.record(ns);
        if (window_)
            window_->record(ns);
    }

    /** Fold another histogram in (cell-capture merging). */
    void
    merge(const LatencyHistogram &other)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hist_.merge(other);
        if (window_)
            window_->merge(other);
    }

    /** Copy of the underlying histogram. */
    LatencyHistogram
    histogram() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hist_;
    }

    /** Allocate (or resize, discarding samples) the K-epoch window. */
    void
    enableWindow(std::size_t epochs)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!window_)
            window_ =
                std::make_unique<WindowedLatencyHistogram>(epochs);
        else if (window_->epochs() != epochs)
            window_->resize(epochs);
    }

    bool
    windowed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return window_ != nullptr;
    }

    /** Publisher tick: retire the live epoch. No-op when disabled. */
    void
    rotateWindow()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (window_)
            window_->rotate();
    }

    /** Aggregate over the retained epochs (empty when disabled). */
    LatencyHistogram
    windowHistogram() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return window_ ? window_->aggregate() : LatencyHistogram();
    }

  private:
    mutable std::mutex mutex_;
    LatencyHistogram hist_;
    std::unique_ptr<WindowedLatencyHistogram> window_;
};

/** Value dump of a whole registry (telemetry snapshotting). */
struct MetricsSnapshot
{
    struct TimerValues
    {
        std::string name;
        LatencyHistogram hist;   ///< lifetime
        LatencyHistogram window; ///< last-W aggregate (empty if off)
        bool windowed = false;
    };

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<TimerValues> timers;
};

/** The registry. Creation-by-name is thread-safe. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    TimerMetric &timer(const std::string &name);

    /** Timer of a per-core family; named "<name>/core<core>". */
    TimerMetric &timerPerCore(const std::string &name, unsigned core);

    /**
     * Dump every metric as one JSON object. Counters/gauges map to
     * numbers; timers to {count, min, max, mean, p50, p90, p99, p999};
     * per-core timer families additionally get a merged entry under
     * the bare family name. Keys are sorted (deterministic output).
     */
    std::string toJson() const;

    /**
     * Name-sorted value dump of every metric (the telemetry
     * publisher's per-interval read). Counter/gauge values are
     * relaxed loads — consistent per metric, not across metrics;
     * timer histograms are copied under their own locks.
     */
    MetricsSnapshot snapshotValues() const;

    /**
     * Fold another registry into this one (the parallel harness merges
     * per-cell registries in submission order): counters add, gauges
     * take the donor's value (last write wins, like a sequential run),
     * timer histograms merge.
     */
    void absorb(const MetricsRegistry &donor);

    /**
     * Switch every timer (existing and future) to keep a K-epoch
     * sliding-window companion. Called once by the telemetry
     * publisher; 0 disables for future timers (existing windows are
     * kept). Rotation stays with rotateWindows() — enabling windows
     * alone never changes recorded values or the JSON dump.
     */
    void enableWindows(std::size_t epochs);

    /** Publisher tick: rotate every windowed timer's epochs. */
    void rotateWindows();

    /** Configured window ring size (0 = windowing off). */
    std::size_t windowEpochs() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<TimerMetric>> timers_;
    std::size_t windowEpochs_ = 0;
};

/**
 * The registry recordings on this thread resolve to, or nullptr: the
 * thread-confined registry when one is installed, otherwise the
 * process-wide one.
 */
MetricsRegistry *metricsRegistry() noexcept;

/** Install/uninstall the process-wide registry (caller owns it). */
void setMetricsRegistry(MetricsRegistry *registry) noexcept;

/**
 * Install/uninstall a registry for the calling thread only (shadows
 * the process-wide one; used by the parallel experiment harness for
 * per-cell capture). Pass nullptr to fall back to the global.
 */
void setThreadMetricsRegistry(MetricsRegistry *registry) noexcept;

/** The calling thread's shadowing registry, or nullptr. */
MetricsRegistry *threadMetricsRegistry() noexcept;

/** RAII thread-confined registry install (nullptr = no shadowing). */
class ScopedThreadMetricsRegistry
{
  public:
    explicit ScopedThreadMetricsRegistry(MetricsRegistry *registry)
        : prev_(threadMetricsRegistry())
    {
        setThreadMetricsRegistry(registry);
    }

    ~ScopedThreadMetricsRegistry() { setThreadMetricsRegistry(prev_); }

    ScopedThreadMetricsRegistry(const ScopedThreadMetricsRegistry &) =
        delete;
    ScopedThreadMetricsRegistry &
    operator=(const ScopedThreadMetricsRegistry &) = delete;

  private:
    MetricsRegistry *prev_;
};

/**
 * The one spelling of a tenant- or worker-scoped metric name: @p base
 * itself for tenant 0 and "base/tN" for tenant N; with a worker index,
 * "base/wM" (tenant 0) or "base/tN.wM". The Prometheus renderer parses
 * the suffix into {tenant="N",worker="M"} labels.
 */
std::string scopedMetricName(const std::string &base, std::uint32_t tenant,
                             int worker = -1);

// ----- No-op-when-disabled helpers for instrumentation sites --------

void addCount(const char *name, std::uint64_t n = 1);
void setGauge(const char *name, std::int64_t v);
void recordTimer(const char *name, std::uint64_t ns);
void recordTimerPerCore(const char *name, unsigned core, std::uint64_t ns);

} // namespace preempt::obs

#endif // PREEMPT_OBS_METRICS_HH
