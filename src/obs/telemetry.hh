/**
 * @file
 * Live telemetry plane: an always-on stats exporter over the metrics
 * registry and span collector.
 *
 * A TelemetryPublisher owns a background thread that, every
 * --stats-interval, polls the registered live samplers (the real
 * runtime publishes per-worker state through them), snapshots every
 * counter/gauge/timer of a MetricsRegistry plus the per-tenant span
 * delay breakdowns of a SpanCollector, derives per-counter rates and
 * per-gauge watermarks, and publishes the result as one immutable
 * shared snapshot: a reader takes a reference under a short lock, so
 * it never copies, never tears, and never sees `seq` go backwards.
 *
 * Every lifetime statistic has a sliding-window companion so a scrape
 * sees *recent* behaviour, not the whole-run blend: timers and span
 * breakdowns keep K-epoch windowed histograms (rotated on publisher
 * ticks — never from wall-clock reads on the record path, preserving
 * simulator byte-determinism), counters get window rates with
 * explicit reset detection, gauges get window watermarks that decay
 * once the burst that set them leaves the window. Exporters surface
 * them as `*_window` series next to the lifetime ones.
 *
 * Scrape paths:
 *   - HTTP (dependency-free, loopback by default): GET /metrics is
 *     Prometheus text exposition, GET /metrics.json (or /json) the
 *     flat JSON snapshot, GET /healthz a liveness probe;
 *   - SIGUSR2 / file dump for no-network environments: the signal (or
 *     dumpNow()) makes the publisher thread write the JSON snapshot
 *     to the configured path on its next tick.
 *
 * Everything here compiles out under -DPREEMPT_OBS=OFF: the header
 * degrades to inert stubs and telemetry.cc contributes no symbols —
 * CI greps the archive to prove it.
 */

#ifndef PREEMPT_OBS_TELEMETRY_HH
#define PREEMPT_OBS_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/time.hh"

#ifndef PREEMPT_OBS_DISABLED

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/format.hh"
#include "obs/metrics.hh"
#include "obs/spans.hh"

namespace preempt::obs {

/** One published snapshot: plain data, immutable once published. */
struct TelemetrySnapshot
{
    /** Quantile summary of one histogram (lifetime or windowed). */
    using TimerStats = HistStats;

    struct CounterSample
    {
        std::string name;
        std::uint64_t value = 0;
        double ratePerSec = 0; ///< delta vs the previous snapshot

        /** Rate over the whole sliding window (last K ticks), the
         *  honest "recent traffic" figure a single-interval delta
         *  only approximates. */
        double windowRatePerSec = 0;

        /** Times the counter went backwards (source restarted). A
         *  reset re-bases rates on the post-reset value instead of
         *  silently reporting 0. */
        std::uint64_t resets = 0;
    };

    struct GaugeSample
    {
        std::string name;
        std::int64_t value = 0;
        std::int64_t watermark = 0; ///< max value ever snapshotted

        /** Max over the last K ticks only: decays once the burst that
         *  set the lifetime watermark leaves the window. */
        std::int64_t windowWatermark = 0;
    };

    /** Lifetime quantiles + sliding-window companion. */
    struct TimerSample : TimerStats
    {
        std::string name;
        TimerStats window;    ///< last-W aggregate (zero if off)
        bool windowed = false;
    };

    /** Per-tenant span delay breakdown (obs/spans.hh). */
    struct TenantSpans
    {
        std::uint32_t tenant = 0;
        std::uint64_t completed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t violations = 0;
        TimerSample queued;
        TimerSample running;
        TimerSample preempted;
        TimerSample timerLag;
        TimerSample total;

        /** The same breakdown over finishes inside the window only. */
        struct Window
        {
            std::uint64_t completed = 0;
            std::uint64_t cancelled = 0;
            std::uint64_t violations = 0;
            TimerStats queued;
            TimerStats running;
            TimerStats preempted;
            TimerStats timerLag;
            TimerStats total;
        } window;
    };

    std::uint64_t seq = 0;       ///< snapshot number, monotonic
    std::uint64_t wallNs = 0;    ///< CLOCK_REALTIME at build time
    std::uint64_t monoNs = 0;    ///< CLOCK_MONOTONIC at build time
    double uptimeSec = 0;        ///< since the publisher started
    double intervalSec = 0;      ///< configured publish interval
    double windowSec = 0;        ///< sliding window span (K * interval)
    std::uint64_t windowEpochs = 0; ///< ring size K
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<TimerSample> timers;
    std::vector<TenantSpans> spans;
    std::uint64_t spanInvariantViolations = 0;
    std::uint64_t spanAnomalies = 0;

    /** FNV-1a over every field (a schema field; readers can verify
     *  that what they hold is what was published). */
    std::uint64_t checksum = 0;

    /** Recompute the checksum field's expected value. */
    std::uint64_t computeChecksum() const;
};

/**
 * Keyed per-metric rate and watermark memory between publisher ticks.
 *
 * Replaces the publisher's former per-snapshot linear rescans (the
 * previous-counter vector was cleared and re-searched per counter,
 * the watermark vector scanned twice per gauge — O(n^2) per tick)
 * with one sorted map lookup per metric, and adds the windowed
 * accounting: per-counter value rings for window rates with explicit
 * reset detection, per-gauge value rings for decaying watermarks.
 * States whose metric disappears from a tick are garbage-collected by
 * endTick(), so memory tracks the live metric set, and a name that
 * reappears later starts fresh.
 *
 * Single-writer (the publisher tick path); not thread-safe.
 */
class StatTracker
{
  public:
    /** @param windowEpochs ring size K (clamped to >= 1). */
    explicit StatTracker(std::size_t windowEpochs);

    struct CounterStats
    {
        double ratePerSec = 0;
        double windowRatePerSec = 0;
        std::uint64_t resets = 0;
    };

    struct GaugeStats
    {
        std::int64_t watermark = 0;
        std::int64_t windowWatermark = 0;
    };

    /** Start a tick at the given monotonic time. */
    void beginTick(std::uint64_t monoNs);

    /** Observe one counter value (once per tick per name). */
    CounterStats counter(const std::string &name, std::uint64_t value);

    /** Observe one gauge value (once per tick per name). */
    GaugeStats gauge(const std::string &name, std::int64_t value);

    /** Finish the tick: drop state of metrics not observed in it. */
    void endTick();

    std::size_t trackedCounters() const { return counters_.size(); }
    std::size_t trackedGauges() const { return gauges_.size(); }
    std::size_t windowEpochs() const { return epochs_; }

  private:
    /** (monoNs, value) samples at the end of the last <= K+1 ticks. */
    struct CounterState
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> ring;
        std::uint64_t resets = 0;
        std::uint64_t lastTick = 0;
    };

    struct GaugeState
    {
        std::int64_t watermark = 0;
        std::vector<std::int64_t> ring; ///< last <= K tick values
        std::uint64_t lastTick = 0;
    };

    std::size_t epochs_;
    std::uint64_t tick_ = 0;
    std::uint64_t monoNs_ = 0;
    std::map<std::string, CounterState> counters_;
    std::map<std::string, GaugeState> gauges_;
};

/** Prometheus text exposition (version 0.0.4) of a snapshot. */
std::string renderPrometheus(const TelemetrySnapshot &snap);

/** Flat JSON rendering (schema "preempt.telemetry.v1"). */
std::string renderTelemetryJson(const TelemetrySnapshot &snap);

/**
 * Register a live sampler: a callback the publisher invokes right
 * before building each snapshot, on the publisher thread, with the
 * publisher's registry. Samplers write gauges/counters into it (the
 * real runtime publishes per-worker scheduler state this way).
 * Registration works with no publisher alive — samplers simply never
 * run.
 * @return id for unregisterTelemetrySampler.
 */
std::uint64_t
registerTelemetrySampler(std::function<void(MetricsRegistry &)> fn);

/** Remove a sampler; after return it will not be invoked again. */
void unregisterTelemetrySampler(std::uint64_t id);

/** The publisher. */
class TelemetryPublisher
{
  public:
    struct Options
    {
        /** Publish interval. */
        TimeNs interval = msToNs(1000);

        /**
         * Sliding-window span for `*_window` series. The window is
         * kept as K = round(window / interval) histogram epochs
         * (clamped to [1, 512]); 0 = default of 10 intervals.
         * Rotation happens on publisher ticks only, so simulator
         * determinism is untouched.
         */
        TimeNs window = 0;

        /**
         * HTTP listener port on 127.0.0.1: -1 = no listener,
         * 0 = ephemeral (read the bound port with port()).
         */
        int port = -1;

        /** JSON dump path for the SIGUSR2 / dumpNow() fallback
         *  ("" = disabled). */
        std::string dumpPath;

        /** Install a SIGUSR2 handler that requests a dump. */
        bool installSigusr2 = false;
    };

    /**
     * @param registry metrics source (may be null: snapshots then
     *        carry only publisher heartbeat + span data)
     * @param spans live span collector (may be null)
     */
    TelemetryPublisher(MetricsRegistry *registry, SpanCollector *spans,
                       Options options);
    ~TelemetryPublisher();

    TelemetryPublisher(const TelemetryPublisher &) = delete;
    TelemetryPublisher &operator=(const TelemetryPublisher &) = delete;

    /** Start the publisher (and listener) threads. */
    void start();

    /** Stop threads; idempotent, also done by the destructor. */
    void stop();

    /** Bound HTTP port, or -1 when no listener is running. */
    int port() const { return boundPort_; }

    /** Build + publish a snapshot immediately (tests, final flush). */
    void tickNow();

    /** Request a JSON dump to Options::dumpPath on the next tick. */
    void dumpNow();

    /**
     * The latest published snapshot, shared, never copied. Before the
     * first tick it is an empty seq-0 snapshot with a valid checksum.
     */
    std::shared_ptr<const TelemetrySnapshot> snapshot() const;

    /** Snapshots published so far. */
    std::uint64_t published() const { return snapshot()->seq; }

    /** Window ring size K derived from Options::window. */
    std::size_t windowEpochs() const { return tracker_.windowEpochs(); }

  private:
    void publisherLoop();
    void listenerLoop();
    void buildAndPublish();
    void writeDump(const TelemetrySnapshot &snap);
    bool openListener();
    void serveClient(int fd);

    MetricsRegistry *registry_;
    SpanCollector *spans_;
    Options options_;

    // Writers (the publisher thread, tickNow() callers) are
    // serialised by tickMutex_; snapMutex_ guards only the pointer
    // swap and the readers' reference-count bump.
    std::mutex tickMutex_;
    mutable std::mutex snapMutex_;
    std::shared_ptr<const TelemetrySnapshot> current_;

    // Rate/watermark memory between snapshots (keyed; O(log n) per
    // metric per tick instead of the old O(n) rescan per metric).
    StatTracker tracker_;

    TimeNs startedAt_ = 0;
    std::atomic<bool> stop_{false};
    std::atomic<bool> dumpRequested_{false};
    std::thread publisher_;
    std::thread listener_;
    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
    int listenFd_ = -1;
    int boundPort_ = -1;
};

} // namespace preempt::obs

#else // PREEMPT_OBS_DISABLED

namespace preempt::obs {

class MetricsRegistry; // never defined in disabled builds' callers

/** Disabled stubs: callers compile, nothing runs, no symbols. */
inline std::uint64_t
registerTelemetrySampler(std::function<void(MetricsRegistry &)>)
{
    return 0;
}

inline void
unregisterTelemetrySampler(std::uint64_t)
{
}

} // namespace preempt::obs

#endif // PREEMPT_OBS_DISABLED

#endif // PREEMPT_OBS_TELEMETRY_HH
