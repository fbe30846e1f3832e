/**
 * @file
 * Tests for the live telemetry publisher (obs/telemetry.hh): torn-read
 * safety of snapshot() under concurrent publishing (checksum hammer),
 * registry snapshot consistency under concurrent mutation, TimerMetric
 * quantiles after cross-thread absorb, rate/watermark derivation,
 * sampler registration, the Prometheus/JSON renderings, the loopback
 * HTTP listener, and the SIGUSR2/file-dump fallback.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/spans.hh"
#include "obs/telemetry.hh"

#ifndef PREEMPT_OBS_DISABLED

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace preempt {
namespace {

using obs::MetricsRegistry;
using obs::SpanCollector;
using obs::TelemetryPublisher;
using obs::TelemetrySnapshot;

TelemetryPublisher::Options
fastOptions()
{
    TelemetryPublisher::Options opt;
    opt.interval = msToNs(5);
    return opt;
}

// ----- snapshot integrity -------------------------------------------

TEST(Telemetry, SnapshotBeforeFirstTickIsEmptyButValid)
{
    MetricsRegistry reg;
    TelemetryPublisher pub(&reg, nullptr, fastOptions());
    auto snap = pub.snapshot();
    EXPECT_EQ(snap->seq, 0u);
    EXPECT_TRUE(snap->counters.empty());
    EXPECT_EQ(snap->checksum, snap->computeChecksum());
}

TEST(Telemetry, TickPublishesAndChecksumMatches)
{
    MetricsRegistry reg;
    reg.counter("a.count").add(3);
    reg.gauge("a.depth").set(7);
    reg.timer("a.lat").record(100);
    TelemetryPublisher pub(&reg, nullptr, fastOptions());
    pub.tickNow();
    auto snap = pub.snapshot();
    EXPECT_EQ(snap->seq, 1u);
    ASSERT_EQ(snap->counters.size(), 1u);
    EXPECT_EQ(snap->counters[0].name, "a.count");
    EXPECT_EQ(snap->counters[0].value, 3u);
    ASSERT_EQ(snap->gauges.size(), 1u);
    EXPECT_EQ(snap->gauges[0].value, 7);
    ASSERT_EQ(snap->timers.size(), 1u);
    EXPECT_EQ(snap->timers[0].count, 1u);
    EXPECT_EQ(snap->checksum, snap->computeChecksum());
}

/** The ISSUE's torn-read criterion: readers hammering snapshot()
 *  while the writer publishes must never observe a mix of two
 *  snapshots. The checksum covers every field, so any tear shows. */
TEST(Telemetry, ConcurrentSnapshotsNeverTear)
{
    MetricsRegistry reg;
    obs::Counter &c = reg.counter("hammer.ops");
    obs::Gauge &g = reg.gauge("hammer.depth");
    obs::TimerMetric &t = reg.timer("hammer.lat");
    TelemetryPublisher pub(&reg, nullptr, fastOptions());

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> torn{0}, reads{0}, regressions{0};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            c.add(3);
            g.set(static_cast<std::int64_t>(reads.load()));
            t.record(42);
            pub.tickNow();
        }
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&] {
            std::uint64_t lastSeq = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                auto snap = pub.snapshot();
                reads.fetch_add(1, std::memory_order_relaxed);
                if (snap->checksum != snap->computeChecksum())
                    torn.fetch_add(1);
                if (snap->seq < lastSeq)
                    regressions.fetch_add(1);
                lastSeq = snap->seq;
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    writer.join();
    for (auto &th : readers)
        th.join();
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_EQ(regressions.load(), 0u);
    EXPECT_GT(reads.load(), 100u);
    EXPECT_GT(pub.published(), 10u);
}

/** Registry snapshots taken mid-mutation must be internally sane and
 *  the final snapshot exact — no lost or torn counter updates. */
TEST(Telemetry, RegistrySnapshotUnderConcurrentMutation)
{
    MetricsRegistry reg;
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 200000;
    obs::Counter &c = reg.counter("mut.count");
    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    for (int i = 0; i < kThreads; ++i) {
        writers.emplace_back([&] {
            while (!go.load()) {
            }
            for (std::uint64_t n = 0; n < kPerThread; ++n)
                c.add();
        });
    }
    go.store(true);
    std::uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
        obs::MetricsSnapshot snap = reg.snapshotValues();
        ASSERT_EQ(snap.counters.size(), 1u);
        // Monotonic: concurrent snapshots never go backwards.
        EXPECT_GE(snap.counters[0].second, last);
        last = snap.counters[0].second;
    }
    for (auto &t : writers)
        t.join();
    EXPECT_EQ(reg.snapshotValues().counters[0].second,
              kThreads * kPerThread);
}

/** Cross-thread absorb (the parallel harness path) must preserve
 *  timer quantiles: merged per-cell histograms == one big recording. */
TEST(Telemetry, TimerQuantilesSurviveCrossThreadAbsorb)
{
    MetricsRegistry combined, reference;
    constexpr int kCells = 4;
    std::vector<MetricsRegistry> cells(kCells);
    std::vector<std::thread> threads;
    for (int i = 0; i < kCells; ++i) {
        threads.emplace_back([&, i] {
            obs::TimerMetric &t = cells[i].timer("abs.lat");
            for (std::uint64_t v = 1; v <= 1000; ++v)
                t.record(v * 1000 + static_cast<std::uint64_t>(i));
        });
    }
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kCells; ++i)
        combined.absorb(cells[i]);
    for (int i = 0; i < kCells; ++i)
        for (std::uint64_t v = 1; v <= 1000; ++v)
            reference.timer("abs.lat").record(
                v * 1000 + static_cast<std::uint64_t>(i));

    LatencyHistogram got = combined.timer("abs.lat").histogram();
    LatencyHistogram want = reference.timer("abs.lat").histogram();
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.p50(), want.p50());
    EXPECT_EQ(got.p90(), want.p90());
    EXPECT_EQ(got.p99(), want.p99());
    EXPECT_EQ(got.p999(), want.p999());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
}

// ----- rates, watermarks, samplers ----------------------------------

TEST(Telemetry, RatesAndWatermarksDeriveAcrossTicks)
{
    MetricsRegistry reg;
    obs::Counter &c = reg.counter("rw.ops");
    obs::Gauge &g = reg.gauge("rw.depth");
    TelemetryPublisher pub(&reg, nullptr, fastOptions());
    c.add(10);
    g.set(50);
    pub.tickNow();
    c.add(90);
    g.set(20);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pub.tickNow();
    auto snap = pub.snapshot();
    ASSERT_EQ(snap->counters.size(), 1u);
    EXPECT_EQ(snap->counters[0].value, 100u);
    EXPECT_GT(snap->counters[0].ratePerSec, 0.0);
    ASSERT_EQ(snap->gauges.size(), 1u);
    EXPECT_EQ(snap->gauges[0].value, 20);
    EXPECT_EQ(snap->gauges[0].watermark, 50); // high-water retained
}

TEST(Telemetry, SamplersRunPerTickAndUnregisterStops)
{
    MetricsRegistry reg;
    TelemetryPublisher pub(&reg, nullptr, fastOptions());
    std::atomic<int> calls{0};
    std::uint64_t id = obs::registerTelemetrySampler(
        [&](MetricsRegistry &r) {
            calls.fetch_add(1);
            r.gauge("sampled.value").set(calls.load());
        });
    pub.tickNow();
    EXPECT_EQ(calls.load(), 1);
    auto snap = pub.snapshot();
    ASSERT_EQ(snap->gauges.size(), 1u);
    EXPECT_EQ(snap->gauges[0].name, "sampled.value");
    obs::unregisterTelemetrySampler(id);
    pub.tickNow();
    EXPECT_EQ(calls.load(), 1);
}

// ----- stat tracker -------------------------------------------------

TEST(StatTracker, FirstSightingHasNoRate)
{
    obs::StatTracker tr(4);
    tr.beginTick(1'000'000'000);
    obs::StatTracker::CounterStats s = tr.counter("c", 100);
    EXPECT_DOUBLE_EQ(s.ratePerSec, 0.0);
    EXPECT_DOUBLE_EQ(s.windowRatePerSec, 0.0);
    EXPECT_EQ(s.resets, 0u);
    tr.endTick();
    EXPECT_EQ(tr.trackedCounters(), 1u);
}

TEST(StatTracker, IntervalAndWindowRatesDiffer)
{
    obs::StatTracker tr(4);
    tr.beginTick(1'000'000'000);
    tr.counter("c", 100);
    tr.endTick();
    tr.beginTick(2'000'000'000);
    obs::StatTracker::CounterStats s = tr.counter("c", 300);
    EXPECT_DOUBLE_EQ(s.ratePerSec, 200.0);
    EXPECT_DOUBLE_EQ(s.windowRatePerSec, 200.0);
    tr.endTick();
    tr.beginTick(3'000'000'000);
    s = tr.counter("c", 400);
    // Last interval: 100/s. Window (2 s, +300): 150/s.
    EXPECT_DOUBLE_EQ(s.ratePerSec, 100.0);
    EXPECT_DOUBLE_EQ(s.windowRatePerSec, 150.0);
    tr.endTick();
}

TEST(StatTracker, CounterResetIsCountedAndRebasesRates)
{
    obs::StatTracker tr(4);
    tr.beginTick(1'000'000'000);
    tr.counter("c", 100000);
    tr.endTick();
    // Source restarted: the value collapses below the previous sample.
    tr.beginTick(2'000'000'000);
    obs::StatTracker::CounterStats s = tr.counter("c", 50);
    EXPECT_EQ(s.resets, 1u);
    // The old honest-zero behaviour reported rate 0 here; re-basing on
    // the post-reset value reports the actual post-restart traffic.
    EXPECT_DOUBLE_EQ(s.ratePerSec, 50.0);
    EXPECT_DOUBLE_EQ(s.windowRatePerSec, 50.0);
    tr.endTick();
    // Post-reset deltas accumulate normally again.
    tr.beginTick(3'000'000'000);
    s = tr.counter("c", 150);
    EXPECT_EQ(s.resets, 1u);
    EXPECT_DOUBLE_EQ(s.ratePerSec, 100.0);
    EXPECT_DOUBLE_EQ(s.windowRatePerSec, 75.0);
    tr.endTick();
}

TEST(StatTracker, DisappearedMetricsAreDroppedAndRestartFresh)
{
    obs::StatTracker tr(4);
    tr.beginTick(1'000'000'000);
    tr.counter("a", 10);
    tr.counter("b", 99);
    tr.gauge("g", 7);
    tr.endTick();
    EXPECT_EQ(tr.trackedCounters(), 2u);
    EXPECT_EQ(tr.trackedGauges(), 1u);
    tr.beginTick(2'000'000'000);
    tr.counter("a", 20);
    tr.endTick();
    // "b" and "g" were not observed: their state must be dropped.
    EXPECT_EQ(tr.trackedCounters(), 1u);
    EXPECT_EQ(tr.trackedGauges(), 0u);
    // A reappearing name starts fresh — no phantom reset or rate from
    // the old incarnation.
    tr.beginTick(3'000'000'000);
    obs::StatTracker::CounterStats s = tr.counter("b", 5);
    EXPECT_EQ(s.resets, 0u);
    EXPECT_DOUBLE_EQ(s.ratePerSec, 0.0);
    tr.endTick();
}

TEST(StatTracker, ManyMetricsSurviveChurn)
{
    // The former publisher rescanned a cleared vector per counter —
    // O(n^2) and rate-blind to churn order. The keyed tracker must
    // keep exact rates for the stable names while half the metric set
    // appears and disappears each tick.
    constexpr int kStable = 200, kChurn = 200;
    obs::StatTracker tr(4);
    for (std::uint64_t tick = 1; tick <= 10; ++tick) {
        tr.beginTick(tick * 1'000'000'000ULL);
        for (int i = 0; i < kStable; ++i) {
            obs::StatTracker::CounterStats s = tr.counter(
                "stable." + std::to_string(i), tick * 100);
            if (tick > 1) {
                EXPECT_DOUBLE_EQ(s.ratePerSec, 100.0)
                    << "stable." << i << " at tick " << tick;
            }
        }
        for (int i = 0; i < kChurn; ++i) {
            // Only half the churn set exists on any given tick.
            if ((static_cast<std::uint64_t>(i) + tick) % 2 == 0)
                tr.counter("churn." + std::to_string(i), tick);
        }
        tr.endTick();
        EXPECT_EQ(tr.trackedCounters(),
                  static_cast<std::size_t>(kStable + kChurn / 2));
    }
}

TEST(StatTracker, WindowWatermarkDecaysAfterBurstLeavesWindow)
{
    obs::StatTracker tr(2);
    tr.beginTick(1'000'000'000);
    obs::StatTracker::GaugeStats s = tr.gauge("g", 100);
    EXPECT_EQ(s.watermark, 100);
    EXPECT_EQ(s.windowWatermark, 100);
    tr.endTick();
    tr.beginTick(2'000'000'000);
    s = tr.gauge("g", 5);
    // Burst still inside the 2-tick window.
    EXPECT_EQ(s.watermark, 100);
    EXPECT_EQ(s.windowWatermark, 100);
    tr.endTick();
    tr.beginTick(3'000'000'000);
    s = tr.gauge("g", 7);
    // Burst left the window: the window watermark decays, the
    // lifetime one never does.
    EXPECT_EQ(s.watermark, 100);
    EXPECT_EQ(s.windowWatermark, 7);
    tr.endTick();
}

// ----- sliding windows through the publisher ------------------------

TEST(TelemetryWindow, EpochCountDerivesFromInterval)
{
    MetricsRegistry reg;
    TelemetryPublisher::Options opt = fastOptions(); // 5 ms interval
    opt.window = msToNs(15);
    TelemetryPublisher pub(&reg, nullptr, opt);
    EXPECT_EQ(pub.windowEpochs(), 3u);
    TelemetryPublisher::Options def = fastOptions(); // default window
    TelemetryPublisher pub2(&reg, nullptr, def);
    EXPECT_EQ(pub2.windowEpochs(), 10u);
}

TEST(TelemetryWindow, QuantilesTrackLoadShiftWhileLifetimeBlends)
{
    MetricsRegistry reg;
    obs::TimerMetric &t = reg.timer("shift.lat");
    TelemetryPublisher::Options opt = fastOptions();
    opt.window = msToNs(15); // K = 3 epochs
    TelemetryPublisher pub(&reg, nullptr, opt);

    for (int e = 0; e < 10; ++e) { // long low-latency phase
        for (int i = 0; i < 1000; ++i)
            t.record(1000);
        pub.tickNow();
    }
    for (int e = 0; e < 3; ++e) { // one full window of high latency
        for (int i = 0; i < 1000; ++i)
            t.record(1000000);
        pub.tickNow();
    }
    auto snap = pub.snapshot();
    ASSERT_EQ(snap->timers.size(), 1u);
    ASSERT_TRUE(snap->timers[0].windowed);
    EXPECT_EQ(snap->windowEpochs, 3u);
    // The window converged to the new phase within K ticks...
    EXPECT_GT(snap->timers[0].window.p50, 500000u);
    EXPECT_LE(snap->timers[0].window.count, snap->timers[0].count);
    // ...while the lifetime median still sits in the old phase
    // (10k low samples vs 3k high ones).
    EXPECT_LT(snap->timers[0].p50, 2000u);
    EXPECT_EQ(snap->checksum, snap->computeChecksum());
}

TEST(TelemetryWindow, SpanWindowsFollowRecentTenantTraffic)
{
    SpanCollector spans;
    TelemetryPublisher::Options opt = fastOptions();
    opt.window = msToNs(10); // K = 2 epochs
    TelemetryPublisher pub(nullptr, &spans, opt);

    auto lifecycle = [&](std::uint64_t id, std::uint64_t start,
                         std::uint64_t dur) {
        spans.onEvent(obs::EventKind::TaskSubmit, 0, start, id, 0, 3);
        spans.onEvent(obs::EventKind::Launch, 0, start + 1, id, 0, 0);
        spans.onEvent(obs::EventKind::Complete, 0, start + dur, id, 0,
                      0);
    };
    lifecycle(1, 0, 100);
    pub.tickNow();
    pub.tickNow();
    pub.tickNow(); // first span has rotated out of the 2-epoch window
    lifecycle(2, 1000, 5000);
    pub.tickNow();
    auto snap = pub.snapshot();
    ASSERT_EQ(snap->spans.size(), 1u);
    EXPECT_EQ(snap->spans[0].completed, 2u);
    // Lifetime covers both spans; the window only the recent one.
    EXPECT_EQ(snap->spans[0].total.count, 2u);
    EXPECT_EQ(snap->spans[0].window.completed, 1u);
    EXPECT_EQ(snap->spans[0].window.total.count, 1u);
    EXPECT_GT(snap->spans[0].window.total.p50, 1000u);
}

TEST(TelemetryWindow, RenderingsExposeWindowSeries)
{
    MetricsRegistry reg;
    reg.counter("w.ops").add(50);
    reg.gauge("w.depth").set(9);
    reg.timer("w.lat").record(777);
    SpanCollector spans;
    spans.onEvent(obs::EventKind::TaskSubmit, 0, 0, 1, 0, 2);
    spans.onEvent(obs::EventKind::Launch, 0, 5, 1, 0, 0);
    spans.onEvent(obs::EventKind::Complete, 0, 9, 1, 0, 0);
    TelemetryPublisher pub(&reg, &spans, fastOptions());
    pub.tickNow();
    pub.tickNow();
    auto snap = pub.snapshot();
    EXPECT_GT(snap->windowSec, 0.0);

    std::string prom = obs::renderPrometheus(*snap);
    for (const char *series :
         {"preempt_telemetry_window_seconds",
          "preempt_w_ops_rate_window", "preempt_w_ops_resets_total",
          "preempt_w_depth_watermark_window", "preempt_w_lat_window",
          "preempt_spans_total_ns_window",
          "preempt_spans_completed_window"})
        EXPECT_NE(prom.find(series), std::string::npos)
            << "missing " << series << "\n"
            << prom;

    std::string json = obs::renderTelemetryJson(*snap);
    std::string err;
    EXPECT_TRUE(obs::validateJson(json, &err)) << err << "\n" << json;
    for (const char *field :
         {"\"window_sec\"", "\"window_epochs\"",
          "\"window_rate_per_sec\"", "\"resets\"",
          "\"window_watermark\"", "\"window\""})
        EXPECT_NE(json.find(field), std::string::npos)
            << "missing " << field << "\n"
            << json;
}

// ----- renderings ---------------------------------------------------

TEST(Telemetry, PrometheusRenderingExposesEverySeries)
{
    MetricsRegistry reg;
    reg.counter("runtime.submitted").add(5);
    reg.gauge("runtime.worker.deque_depth/w2").set(3);
    reg.gauge("runtime.worker.deque_depth/t4.w0").set(1);
    reg.timer("utimer.delivery_ns/core1").record(900);
    SpanCollector spans;
    spans.onEvent(obs::EventKind::TaskSubmit, 0, 0, 1, 0, 6);
    spans.onEvent(obs::EventKind::Launch, 0, 10, 1, 0, 0);
    spans.onEvent(obs::EventKind::Complete, 0, 30, 1, 0, 0);
    TelemetryPublisher pub(&reg, &spans, fastOptions());
    pub.tickNow();
    std::string text = obs::renderPrometheus(*pub.snapshot());

    // Counter with _total suffix + derived rate gauge.
    EXPECT_NE(text.find("preempt_runtime_submitted_total 5"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("preempt_runtime_submitted_rate"),
              std::string::npos);
    // Per-worker gauge: "/w2" parsed into a worker label.
    EXPECT_NE(
        text.find(
            "preempt_runtime_worker_deque_depth{worker=\"2\"} 3"),
        std::string::npos)
        << text;
    // Tenant-qualified worker gauge keeps both labels.
    EXPECT_NE(text.find("tenant=\"4\""), std::string::npos);
    // Timer rendered as a summary with quantile labels.
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
    // Per-tenant span series.
    EXPECT_NE(
        text.find("preempt_spans_completed_total{tenant=\"6\"} 1"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("preempt_spans_queued_ns"), std::string::npos);
    // Every exposition line is # or name{...} value — no raw dots.
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto name = line.substr(0, line.find_first_of("{ "));
        EXPECT_EQ(name.find('.'), std::string::npos)
            << "unsanitized metric name: " << line;
        EXPECT_EQ(name.rfind("preempt_", 0), 0u)
            << "unprefixed metric name: " << line;
    }
}

TEST(Telemetry, JsonRenderingIsValidAndRoundTrips)
{
    MetricsRegistry reg;
    reg.counter("j.count").add(2);
    reg.gauge("j.depth").set(-4); // negative gauges must survive
    reg.timer("j.lat").record(123);
    SpanCollector spans;
    spans.onEvent(obs::EventKind::TaskSubmit, 0, 0, 1, 0, 2);
    spans.onEvent(obs::EventKind::Launch, 0, 5, 1, 0, 0);
    spans.onEvent(obs::EventKind::Complete, 0, 9, 1, 0, 0);
    TelemetryPublisher pub(&reg, &spans, fastOptions());
    pub.tickNow();
    std::string json = obs::renderTelemetryJson(*pub.snapshot());
    std::string err;
    EXPECT_TRUE(obs::validateJson(json, &err)) << err << "\n" << json;
    EXPECT_NE(json.find("\"schema\": \"preempt.telemetry.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"j.depth\""), std::string::npos);
    EXPECT_NE(json.find("-4"), std::string::npos);
    EXPECT_NE(json.find("\"tenants\""), std::string::npos);
}

/** A hand-built snapshot: two tenants, label-suffixed counters,
 *  gauges and timers, every field distinct. */
TelemetrySnapshot
goldenSnapshot()
{
    auto stats = [](std::uint64_t b) {
        TelemetrySnapshot::TimerStats t;
        t.count = b;
        t.min = b + 1;
        t.max = b * 100;
        t.mean = static_cast<double>(b) * 10.25;
        t.p50 = b * 9;
        t.p90 = b * 20;
        t.p99 = b * 50;
        t.p999 = b * 90;
        return t;
    };
    auto timer = [&](const char *name, std::uint64_t b, bool windowed) {
        TelemetrySnapshot::TimerSample t;
        static_cast<TelemetrySnapshot::TimerStats &>(t) = stats(b);
        t.name = name;
        t.windowed = windowed;
        if (windowed)
            t.window = stats(b + 3);
        return t;
    };

    TelemetrySnapshot s;
    s.seq = 7;
    s.wallNs = 1700000000123456789ULL;
    s.monoNs = 987654321;
    s.uptimeSec = 12.5;
    s.intervalSec = 0.05;
    s.windowSec = 0.5;
    s.windowEpochs = 10;
    s.counters = {{"runtime.steal.hit/w0", 10, 1.5, 2.25, 0},
                  {"runtime.steal.hit/w1", 20, 3.5, 4.125, 0},
                  {"runtime.submitted", 30, 100.0, 75.5, 1},
                  {"odd.name/x\"y", 1, 0.0, 0.0, 0}};
    s.gauges = {{"runtime.worker.deque_depth/t1.w0", 3, 9, 4},
                {"runtime.worker.deque_depth/t1.w1", -2, 6, 1},
                {"runtime.in_flight", 5, 12, 7}};
    s.timers = {timer("runtime.sojourn_ns/core0", 11, true),
                timer("runtime.sojourn_ns/core1", 13, true),
                timer("utimer.delivery_ns", 17, false)};
    for (std::uint32_t tenant : {1u, 2u}) {
        TelemetrySnapshot::TenantSpans t;
        std::uint64_t b = tenant * 100;
        t.tenant = tenant;
        t.completed = b + 1;
        t.cancelled = b + 2;
        t.violations = b + 3;
        t.queued = timer("queued", b + 4, false);
        t.running = timer("running", b + 5, false);
        t.preempted = timer("preempted", b + 6, false);
        t.timerLag = timer("timer_lag", b + 7, false);
        t.total = timer("total", b + 8, false);
        t.window.completed = b + 9;
        t.window.cancelled = b + 10;
        t.window.violations = b + 11;
        t.window.queued = stats(b + 12);
        t.window.running = stats(b + 13);
        t.window.preempted = stats(b + 14);
        t.window.timerLag = stats(b + 15);
        t.window.total = stats(b + 16);
        s.spans.push_back(t);
    }
    s.spanInvariantViolations = 1;
    s.spanAnomalies = 2;
    s.checksum = s.computeChecksum();
    return s;
}

/** renderTelemetryJson(goldenSnapshot()), byte for byte, checksum
 *  included: the schema and the checksum's byte order are pinned. */
const char *const kGoldenJson = R"golden({
  "schema": "preempt.telemetry.v1",
  "seq": 7,
  "wall_ns": 1700000000123456789,
  "mono_ns": 987654321,
  "uptime_sec": 12.500000,
  "interval_sec": 0.050000,
  "window_sec": 0.500000,
  "window_epochs": 10,
  "checksum": "3dae17269ebb77e8",
  "counters": {
    "runtime.steal.hit/w0": {"value": 10, "rate_per_sec": 1.500000, "window_rate_per_sec": 2.250000, "resets": 0},
    "runtime.steal.hit/w1": {"value": 20, "rate_per_sec": 3.500000, "window_rate_per_sec": 4.125000, "resets": 0},
    "runtime.submitted": {"value": 30, "rate_per_sec": 100.000000, "window_rate_per_sec": 75.500000, "resets": 1},
    "odd.name/x\"y": {"value": 1, "rate_per_sec": 0.000000, "window_rate_per_sec": 0.000000, "resets": 0}
  },
  "gauges": {
    "runtime.worker.deque_depth/t1.w0": {"value": 3, "watermark": 9, "window_watermark": 4},
    "runtime.worker.deque_depth/t1.w1": {"value": -2, "watermark": 6, "window_watermark": 1},
    "runtime.in_flight": {"value": 5, "watermark": 12, "window_watermark": 7}
  },
  "timers": {
    "runtime.sojourn_ns/core0": {"count": 11, "min": 12, "max": 1100, "mean": 112.750000, "p50": 99, "p90": 220, "p99": 550, "p999": 990, "window": {"count": 14, "min": 15, "max": 1400, "mean": 143.500000, "p50": 126, "p90": 280, "p99": 700, "p999": 1260}},
    "runtime.sojourn_ns/core1": {"count": 13, "min": 14, "max": 1300, "mean": 133.250000, "p50": 117, "p90": 260, "p99": 650, "p999": 1170, "window": {"count": 16, "min": 17, "max": 1600, "mean": 164.000000, "p50": 144, "p90": 320, "p99": 800, "p999": 1440}},
    "utimer.delivery_ns": {"count": 17, "min": 18, "max": 1700, "mean": 174.250000, "p50": 153, "p90": 340, "p99": 850, "p999": 1530}
  },
  "spans": {
    "invariant_violations": 1,
    "anomalies": 2,
    "tenants": {
      "1": {"completed": 101, "cancelled": 102, "violations": 103, "queued": {"count": 104, "min": 105, "max": 10400, "mean": 1066.000000, "p50": 936, "p90": 2080, "p99": 5200, "p999": 9360}, "running": {"count": 105, "min": 106, "max": 10500, "mean": 1076.250000, "p50": 945, "p90": 2100, "p99": 5250, "p999": 9450}, "preempted": {"count": 106, "min": 107, "max": 10600, "mean": 1086.500000, "p50": 954, "p90": 2120, "p99": 5300, "p999": 9540}, "timer_lag": {"count": 107, "min": 108, "max": 10700, "mean": 1096.750000, "p50": 963, "p90": 2140, "p99": 5350, "p999": 9630}, "total": {"count": 108, "min": 109, "max": 10800, "mean": 1107.000000, "p50": 972, "p90": 2160, "p99": 5400, "p999": 9720}, "window": {"completed": 109, "cancelled": 110, "violations": 111, "queued": {"count": 112, "min": 113, "max": 11200, "mean": 1148.000000, "p50": 1008, "p90": 2240, "p99": 5600, "p999": 10080}, "running": {"count": 113, "min": 114, "max": 11300, "mean": 1158.250000, "p50": 1017, "p90": 2260, "p99": 5650, "p999": 10170}, "preempted": {"count": 114, "min": 115, "max": 11400, "mean": 1168.500000, "p50": 1026, "p90": 2280, "p99": 5700, "p999": 10260}, "timer_lag": {"count": 115, "min": 116, "max": 11500, "mean": 1178.750000, "p50": 1035, "p90": 2300, "p99": 5750, "p999": 10350}, "total": {"count": 116, "min": 117, "max": 11600, "mean": 1189.000000, "p50": 1044, "p90": 2320, "p99": 5800, "p999": 10440}}},
      "2": {"completed": 201, "cancelled": 202, "violations": 203, "queued": {"count": 204, "min": 205, "max": 20400, "mean": 2091.000000, "p50": 1836, "p90": 4080, "p99": 10200, "p999": 18360}, "running": {"count": 205, "min": 206, "max": 20500, "mean": 2101.250000, "p50": 1845, "p90": 4100, "p99": 10250, "p999": 18450}, "preempted": {"count": 206, "min": 207, "max": 20600, "mean": 2111.500000, "p50": 1854, "p90": 4120, "p99": 10300, "p999": 18540}, "timer_lag": {"count": 207, "min": 208, "max": 20700, "mean": 2121.750000, "p50": 1863, "p90": 4140, "p99": 10350, "p999": 18630}, "total": {"count": 208, "min": 209, "max": 20800, "mean": 2132.000000, "p50": 1872, "p90": 4160, "p99": 10400, "p999": 18720}, "window": {"completed": 209, "cancelled": 210, "violations": 211, "queued": {"count": 212, "min": 213, "max": 21200, "mean": 2173.000000, "p50": 1908, "p90": 4240, "p99": 10600, "p999": 19080}, "running": {"count": 213, "min": 214, "max": 21300, "mean": 2183.250000, "p50": 1917, "p90": 4260, "p99": 10650, "p999": 19170}, "preempted": {"count": 214, "min": 215, "max": 21400, "mean": 2193.500000, "p50": 1926, "p90": 4280, "p99": 10700, "p999": 19260}, "timer_lag": {"count": 215, "min": 216, "max": 21500, "mean": 2203.750000, "p50": 1935, "p90": 4300, "p99": 10750, "p999": 19350}, "total": {"count": 216, "min": 217, "max": 21600, "mean": 2214.000000, "p50": 1944, "p90": 4320, "p99": 10800, "p999": 19440}}}
    }
  }
}
)golden";

TEST(TelemetryRender, JsonMatchesGolden)
{
    EXPECT_EQ(obs::renderTelemetryJson(goldenSnapshot()), kGoldenJson);
}

/** Map a sample name to its family: the name itself once its # TYPE
 *  was seen, or the summary it is the _sum/_count of. */
std::string
sampleFamily(const std::string &name,
             const std::map<std::string, std::string> &types)
{
    if (types.count(name))
        return name;
    for (const std::string suffix : {"_sum", "_count"}) {
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            std::string base = name.substr(0, name.size() - suffix.size());
            auto it = types.find(base);
            if (it != types.end() && it->second == "summary")
                return base;
        }
    }
    return name;
}

/** The exposition format's grouping rules: every family has exactly
 *  one # TYPE line, and all of its samples follow it contiguously.
 *  Two label sets of one metric (per worker, core, tenant) must not
 *  repeat the TYPE line or interleave with other families. */
TEST(TelemetryRender, PrometheusGroupsSamplesByFamily)
{
    std::string text = obs::renderPrometheus(goldenSnapshot());
    std::map<std::string, std::string> types;
    std::string current;
    std::size_t samples = 0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream fields(line.substr(7));
            std::string name, type;
            fields >> name >> type;
            EXPECT_TRUE(types.emplace(name, type).second)
                << "repeated # TYPE for " << name;
            current = name;
            continue;
        }
        ++samples;
        std::string name = line.substr(0, line.find_first_of("{ "));
        EXPECT_EQ(sampleFamily(name, types), current)
            << "sample outside its family's run: " << line;
    }
    // Same series as before grouping: 5 heartbeat, 4x4 counter,
    // 3x3 gauge, 5x6 timer and 2x(6 + 10x6) + 2 span samples.
    EXPECT_EQ(samples, 5u + 16u + 9u + 30u + 134u);
    for (const char *series :
         {"preempt_runtime_steal_hit_total{worker=\"1\"} 20\n",
          "preempt_spans_total_ns_window_count{tenant=\"2\"} 216\n"})
        EXPECT_NE(text.find(series), std::string::npos) << series;
}

// ----- HTTP listener ------------------------------------------------

/** Minimal loopback HTTP GET; returns the full response. */
std::string
httpGet(int port, const std::string &path)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    (void)!::send(fd, req.data(), req.size(), 0);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return out;
}

TEST(TelemetryHttp, ScrapeMetricsAndJsonAndHealth)
{
    MetricsRegistry reg;
    reg.counter("http.reqs").add(9);
    TelemetryPublisher::Options opt = fastOptions();
    opt.port = 0; // ephemeral
    TelemetryPublisher pub(&reg, nullptr, opt);
    pub.start();
    ASSERT_GT(pub.port(), 0);
    pub.tickNow();

    std::string prom = httpGet(pub.port(), "/metrics");
    EXPECT_NE(prom.find("200 OK"), std::string::npos) << prom;
    EXPECT_NE(prom.find("preempt_http_reqs_total 9"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("preempt_up 1"), std::string::npos);

    std::string json = httpGet(pub.port(), "/metrics.json");
    EXPECT_NE(json.find("200 OK"), std::string::npos);
    auto body = json.find("\r\n\r\n");
    ASSERT_NE(body, std::string::npos);
    std::string err;
    EXPECT_TRUE(obs::validateJson(json.substr(body + 4), &err)) << err;

    std::string health = httpGet(pub.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok"), std::string::npos);

    std::string missing = httpGet(pub.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);
    pub.stop();
}

TEST(TelemetryHttp, BackgroundThreadPublishesWithoutTickNow)
{
    MetricsRegistry reg;
    TelemetryPublisher::Options opt;
    opt.interval = msToNs(5);
    opt.port = 0;
    TelemetryPublisher pub(&reg, nullptr, opt);
    pub.start();
    // The publisher thread must tick on its own.
    for (int i = 0; i < 200 && pub.published() < 3; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(pub.published(), 3u);
    pub.stop();
}

// ----- dump fallback ------------------------------------------------

TEST(TelemetryDump, DumpNowWritesValidSnapshotJson)
{
    std::string path = ::testing::TempDir() + "telemetry_dump.json";
    std::remove(path.c_str());
    MetricsRegistry reg;
    reg.counter("d.count").add(1);
    TelemetryPublisher::Options opt = fastOptions();
    opt.dumpPath = path;
    TelemetryPublisher pub(&reg, nullptr, opt);
    pub.start();
    pub.dumpNow();
    pub.stop(); // final tick honours the pending dump
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no dump at " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    EXPECT_TRUE(obs::validateJson(ss.str(), &err)) << err;
    EXPECT_NE(ss.str().find("\"d.count\""), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace preempt

#else // PREEMPT_OBS_DISABLED

// Telemetry is compiled out; keep one test so the binary still
// registers with ctest, and pin the stub API callers rely on.
TEST(Telemetry, CompiledOutStubsAreCallable)
{
    std::uint64_t id = preempt::obs::registerTelemetrySampler({});
    EXPECT_EQ(id, 0u);
    preempt::obs::unregisterTelemetrySampler(id);
}

#endif // PREEMPT_OBS_DISABLED
