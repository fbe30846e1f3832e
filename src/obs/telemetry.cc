#include "obs/telemetry.hh"

#ifndef PREEMPT_OBS_DISABLED

#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <csignal>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <locale>
#include <netinet/in.h>
#include <poll.h>
#include <sstream>
#include <string_view>
#include <sys/socket.h>
#include <unistd.h>
#include <unordered_map>

#include "common/logging.hh"

namespace preempt::obs {

namespace {

// ----- live sampler registry ----------------------------------------

struct SamplerEntry
{
    std::uint64_t id;
    std::function<void(MetricsRegistry &)> fn;
};

std::mutex g_samplerMutex;
std::vector<SamplerEntry> g_samplers;
std::uint64_t g_nextSamplerId = 1;

/** Invoke every registered sampler (publisher thread, under the
 *  registry mutex so unregister() can synchronise with running). */
void
runSamplers(MetricsRegistry &registry)
{
    std::lock_guard<std::mutex> lock(g_samplerMutex);
    for (const SamplerEntry &s : g_samplers)
        s.fn(registry);
}

// ----- SIGUSR2 dump request -----------------------------------------

/** Async-signal-safe flag the publisher thread polls each tick. */
std::atomic<bool> g_sigDumpRequested{false};

void
sigusr2Handler(int)
{
    g_sigDumpRequested.store(true, std::memory_order_relaxed);
}

// ----- time helpers -------------------------------------------------

std::uint64_t
clockNs(clockid_t clock)
{
    timespec ts;
    ::clock_gettime(clock, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

// ----- checksum -----------------------------------------------------

/** Incremental FNV-1a64. */
class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void i64(std::int64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }
    void str(const std::string &s) { u64(s.size()); bytes(s.data(), s.size()); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void
hashStats(Fnv &h, const TelemetrySnapshot::TimerStats &t)
{
    h.u64(t.count);
    h.u64(t.min);
    h.u64(t.max);
    h.f64(t.mean);
    h.u64(t.p50);
    h.u64(t.p90);
    h.u64(t.p99);
    h.u64(t.p999);
}

void
hashTimer(Fnv &h, const TelemetrySnapshot::TimerSample &t)
{
    h.str(t.name);
    hashStats(h, t);
    hashStats(h, t.window);
    h.u64(t.windowed ? 1 : 0);
}

// ----- span parts ---------------------------------------------------

using TenantSpans = TelemetrySnapshot::TenantSpans;

/**
 * The five delay parts of a tenant's span breakdown, in schema order:
 * each part's name and where it lives in the lifetime breakdown, the
 * window breakdown and the collector's stats. Sampling, hashing and
 * both renderers walk this one table.
 */
struct SpanPart
{
    const char *name;
    TelemetrySnapshot::TimerSample TenantSpans::*life;
    TelemetrySnapshot::TimerStats TenantSpans::Window::*window;
    LatencyHistogram SpanCollector::TenantStats::*hist;
};

constexpr SpanPart kSpanParts[] = {
    {"queued", &TenantSpans::queued, &TenantSpans::Window::queued,
     &SpanCollector::TenantStats::queued},
    {"running", &TenantSpans::running, &TenantSpans::Window::running,
     &SpanCollector::TenantStats::running},
    {"preempted", &TenantSpans::preempted,
     &TenantSpans::Window::preempted,
     &SpanCollector::TenantStats::preempted},
    {"timer_lag", &TenantSpans::timerLag, &TenantSpans::Window::timerLag,
     &SpanCollector::TenantStats::timerLag},
    {"total", &TenantSpans::total, &TenantSpans::Window::total,
     &SpanCollector::TenantStats::total},
};

TelemetrySnapshot::TimerSample
sampleTimer(const std::string &name, const LatencyHistogram &h)
{
    TelemetrySnapshot::TimerSample t;
    static_cast<TelemetrySnapshot::TimerStats &>(t) = HistStats::of(h);
    t.name = name;
    return t;
}

// ----- rendering helpers --------------------------------------------

using fmt::num;

/**
 * Split a metric name into a Prometheus-safe base name and labels.
 * The part before the first '/' becomes the base ('.' -> '_'); the
 * suffix is '.'-separated segments, each "word<digits>" becoming a
 * label (t -> tenant, w -> worker; core/shard keep their names), any
 * other segment landing in a generic sub="..." label.
 */
struct PromName
{
    std::string base;
    std::string labels; ///< bare "a=\"1\",b=\"2\"" or ""
};

std::string
sanitize(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

PromName
promName(const std::string &name)
{
    PromName out;
    auto slash = name.find('/');
    out.base = "preempt_" + sanitize(name.substr(0, slash));
    if (slash == std::string::npos)
        return out;

    std::istringstream segments(name.substr(slash + 1));
    std::string seg;
    while (std::getline(segments, seg, '.')) {
        if (seg.empty())
            continue;
        // npos + 1 == 0: an all-digit segment has an empty key.
        std::size_t d = seg.find_last_not_of("0123456789") + 1;
        std::string key = seg.substr(0, d);
        std::string val = seg.substr(d);
        if (key.empty() || val.empty()) {
            key = "sub";
            val = seg;
        } else if (key == "t") {
            key = "tenant";
        } else if (key == "w") {
            key = "worker";
        }
        if (!out.labels.empty())
            out.labels += ",";
        out.labels += sanitize(key) + "=\"" + fmt::escape(val) + "\"";
    }
    return out;
}

/**
 * Prometheus text grouped by family: each family gets exactly one
 * `# TYPE` line followed by all of its samples, families in the order
 * first seen. A metric with several label sets (one per worker, core
 * or tenant) thus stays one contiguous family, as the exposition
 * format requires.
 */
class PromWriter
{
  public:
    /** One sample `name{labels} value`; @p labels is bare or "". */
    template <typename V>
    void
    sample(const std::string &name, const char *type,
           const std::string &labels, const V &value)
    {
        family(name, type) << name << braced(labels) << ' ' << value
                           << '\n';
    }

    /** A summary family: four quantile samples, _sum and _count. */
    void
    summary(const std::string &base, const std::string &labels,
            const TelemetrySnapshot::TimerStats &t)
    {
        std::ostream &os = family(base, "summary");
        std::string pre = labels.empty() ? "{" : "{" + labels + ",";
        for (auto [q, v] : {std::pair{"0.5", t.p50}, {"0.9", t.p90},
                            {"0.99", t.p99}, {"0.999", t.p999}})
            os << base << pre << "quantile=\"" << q << "\"} " << v
               << '\n';
        os << base << "_sum" << braced(labels) << ' '
           << num(t.mean * static_cast<double>(t.count)) << '\n';
        os << base << "_count" << braced(labels) << ' ' << t.count
           << '\n';
    }

    std::string
    str() const
    {
        std::string out;
        for (const Family &f : families_)
            out += "# TYPE " + f.name + ' ' + f.type + '\n' +
                   f.body.str();
        return out;
    }

  private:
    struct Family
    {
        std::string name;
        const char *type = "";
        std::ostringstream body;
    };

    static std::string
    braced(const std::string &labels)
    {
        return labels.empty() ? "" : "{" + labels + "}";
    }

    std::ostream &
    family(const std::string &name, const char *type)
    {
        auto [it, fresh] = index_.try_emplace(name, families_.size());
        if (fresh) {
            Family &f = families_.emplace_back();
            f.name = name;
            f.type = type;
            f.body.imbue(std::locale::classic());
        }
        return families_[it->second].body;
    }

    std::deque<Family> families_; ///< deque: bodies never move
    std::unordered_map<std::string, std::size_t> index_;
};

/** Lifetime stats plus, when windowing is on, a nested "window"
 *  object with the last-W aggregate. */
void
jsonTimer(std::ostream &os, const TelemetrySnapshot::TimerSample &t)
{
    os << '{';
    fmt::jsonStatsFields(os, t);
    if (t.windowed) {
        os << ", \"window\": ";
        fmt::jsonStats(os, t.window);
    }
    os << '}';
}

} // namespace

// ----- snapshot checksum --------------------------------------------

std::uint64_t
TelemetrySnapshot::computeChecksum() const
{
    Fnv h;
    h.u64(seq);
    h.u64(wallNs);
    h.u64(monoNs);
    h.f64(uptimeSec);
    h.f64(intervalSec);
    h.f64(windowSec);
    h.u64(windowEpochs);
    h.u64(counters.size());
    for (const CounterSample &c : counters) {
        h.str(c.name);
        h.u64(c.value);
        h.f64(c.ratePerSec);
        h.f64(c.windowRatePerSec);
        h.u64(c.resets);
    }
    h.u64(gauges.size());
    for (const GaugeSample &g : gauges) {
        h.str(g.name);
        h.i64(g.value);
        h.i64(g.watermark);
        h.i64(g.windowWatermark);
    }
    h.u64(timers.size());
    for (const TimerSample &t : timers)
        hashTimer(h, t);
    h.u64(spans.size());
    for (const TenantSpans &t : spans) {
        h.u64(t.tenant);
        h.u64(t.completed);
        h.u64(t.cancelled);
        h.u64(t.violations);
        for (const SpanPart &p : kSpanParts)
            hashTimer(h, t.*p.life);
        h.u64(t.window.completed);
        h.u64(t.window.cancelled);
        h.u64(t.window.violations);
        for (const SpanPart &p : kSpanParts)
            hashStats(h, t.window.*p.window);
    }
    h.u64(spanInvariantViolations);
    h.u64(spanAnomalies);
    return h.value();
}

// ----- renderers ----------------------------------------------------

std::string
renderPrometheus(const TelemetrySnapshot &snap)
{
    PromWriter w;
    w.sample("preempt_up", "gauge", "", 1);
    w.sample("preempt_telemetry_snapshots_total", "counter", "",
             snap.seq);
    w.sample("preempt_telemetry_uptime_seconds", "gauge", "",
             num(snap.uptimeSec));
    w.sample("preempt_telemetry_window_seconds", "gauge", "",
             num(snap.windowSec));
    w.sample("preempt_telemetry_window_epochs", "gauge", "",
             snap.windowEpochs);

    for (const auto &c : snap.counters) {
        PromName p = promName(c.name);
        bool suffixed = std::string_view(p.base).ends_with("_total");
        w.sample(suffixed ? p.base : p.base + "_total", "counter",
                 p.labels, c.value);
        w.sample(p.base + "_rate", "gauge", p.labels, num(c.ratePerSec));
        w.sample(p.base + "_rate_window", "gauge", p.labels,
                 num(c.windowRatePerSec));
        w.sample(p.base + "_resets_total", "counter", p.labels,
                 c.resets);
    }
    for (const auto &g : snap.gauges) {
        PromName p = promName(g.name);
        w.sample(p.base, "gauge", p.labels, g.value);
        w.sample(p.base + "_watermark", "gauge", p.labels, g.watermark);
        w.sample(p.base + "_watermark_window", "gauge", p.labels,
                 g.windowWatermark);
    }
    for (const auto &t : snap.timers) {
        PromName p = promName(t.name);
        w.summary(p.base, p.labels, t);
        if (t.windowed)
            w.summary(p.base + "_window", p.labels, t.window);
    }

    for (const auto &t : snap.spans) {
        std::string tenant = "tenant=\"" + std::to_string(t.tenant) + "\"";
        w.sample("preempt_spans_completed_total", "counter", tenant,
                 t.completed);
        w.sample("preempt_spans_cancelled_total", "counter", tenant,
                 t.cancelled);
        w.sample("preempt_spans_slo_violations_total", "counter", tenant,
                 t.violations);
        for (const SpanPart &p : kSpanParts)
            w.summary(std::string("preempt_spans_") + p.name + "_ns",
                      tenant, t.*p.life);
        w.sample("preempt_spans_completed_window", "gauge", tenant,
                 t.window.completed);
        w.sample("preempt_spans_cancelled_window", "gauge", tenant,
                 t.window.cancelled);
        w.sample("preempt_spans_slo_violations_window", "gauge", tenant,
                 t.window.violations);
        for (const SpanPart &p : kSpanParts)
            w.summary(std::string("preempt_spans_") + p.name +
                          "_ns_window",
                      tenant, t.window.*p.window);
    }
    if (!snap.spans.empty()) {
        w.sample("preempt_spans_invariant_violations_total", "counter",
                 "", snap.spanInvariantViolations);
        w.sample("preempt_spans_anomalies_total", "counter", "",
                 snap.spanAnomalies);
    }
    return w.str();
}

std::string
renderTelemetryJson(const TelemetrySnapshot &snap)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "{\n";
    os << "  \"schema\": \"preempt.telemetry.v1\",\n";
    os << "  \"seq\": " << snap.seq << ",\n";
    os << "  \"wall_ns\": " << snap.wallNs << ",\n";
    os << "  \"mono_ns\": " << snap.monoNs << ",\n";
    os << "  \"uptime_sec\": " << num(snap.uptimeSec) << ",\n";
    os << "  \"interval_sec\": " << num(snap.intervalSec) << ",\n";
    os << "  \"window_sec\": " << num(snap.windowSec) << ",\n";
    os << "  \"window_epochs\": " << snap.windowEpochs << ",\n";
    os << "  \"checksum\": \"" << std::hex << snap.checksum << std::dec
       << "\",\n";

    // One "section": {"name": {...}, ...} object per metric kind.
    auto section = [&os](const char *name, const auto &items,
                         auto &&entry) {
        os << "  \"" << name << "\": {";
        const char *sep = "\n";
        for (const auto &item : items) {
            os << sep << "    \"" << fmt::escape(item.name) << "\": ";
            entry(item);
            sep = ",\n";
        }
        os << (items.empty() ? "},\n" : "\n  },\n");
    };
    section("counters", snap.counters, [&os](const auto &c) {
        os << "{\"value\": " << c.value << ", \"rate_per_sec\": "
           << num(c.ratePerSec) << ", \"window_rate_per_sec\": "
           << num(c.windowRatePerSec) << ", \"resets\": " << c.resets
           << "}";
    });
    section("gauges", snap.gauges, [&os](const auto &g) {
        os << "{\"value\": " << g.value << ", \"watermark\": "
           << g.watermark << ", \"window_watermark\": "
           << g.windowWatermark << "}";
    });
    section("timers", snap.timers,
            [&os](const auto &t) { jsonTimer(os, t); });

    os << "  \"spans\": {\n";
    os << "    \"invariant_violations\": " << snap.spanInvariantViolations
       << ",\n";
    os << "    \"anomalies\": " << snap.spanAnomalies << ",\n";
    os << "    \"tenants\": {";
    const char *sep = "\n";
    for (const auto &t : snap.spans) {
        os << sep << "      \"" << t.tenant
           << "\": {\"completed\": " << t.completed
           << ", \"cancelled\": " << t.cancelled
           << ", \"violations\": " << t.violations;
        for (const SpanPart &p : kSpanParts) {
            os << ", \"" << p.name << "\": ";
            jsonTimer(os, t.*p.life);
        }
        os << ", \"window\": {\"completed\": " << t.window.completed
           << ", \"cancelled\": " << t.window.cancelled
           << ", \"violations\": " << t.window.violations;
        for (const SpanPart &p : kSpanParts) {
            os << ", \"" << p.name << "\": ";
            fmt::jsonStats(os, t.window.*p.window);
        }
        os << "}}";
        sep = ",\n";
    }
    os << (snap.spans.empty() ? "}\n" : "\n    }\n");
    os << "  }\n";
    os << "}\n";
    return os.str();
}

// ----- sampler registry (public) ------------------------------------

std::uint64_t
registerTelemetrySampler(std::function<void(MetricsRegistry &)> fn)
{
    std::lock_guard<std::mutex> lock(g_samplerMutex);
    std::uint64_t id = g_nextSamplerId++;
    g_samplers.push_back({id, std::move(fn)});
    return id;
}

void
unregisterTelemetrySampler(std::uint64_t id)
{
    if (id == 0)
        return;
    // Taking the mutex also waits out a concurrently running pass, so
    // after return the sampler can never run again.
    std::lock_guard<std::mutex> lock(g_samplerMutex);
    std::erase_if(g_samplers,
                  [id](const SamplerEntry &s) { return s.id == id; });
}

// ----- stat tracker -------------------------------------------------

StatTracker::StatTracker(std::size_t windowEpochs)
    : epochs_(windowEpochs == 0 ? 1 : windowEpochs)
{
}

void
StatTracker::beginTick(std::uint64_t monoNs)
{
    ++tick_;
    monoNs_ = monoNs;
}

StatTracker::CounterStats
StatTracker::counter(const std::string &name, std::uint64_t value)
{
    CounterStats out;
    CounterState &st = counters_[name];
    st.lastTick = tick_;
    if (!st.ring.empty()) {
        std::uint64_t prevVal = st.ring.back().second;
        if (value < prevVal) {
            // The counter went backwards: its source restarted. Wind
            // every retained sample down to zero so both rates cover
            // the post-reset traffic instead of reporting 0 until the
            // window drains.
            ++st.resets;
            for (auto &s : st.ring)
                s.second = 0;
            prevVal = 0;
        }
        std::uint64_t prevNs = st.ring.back().first;
        if (monoNs_ > prevNs)
            out.ratePerSec =
                static_cast<double>(value - prevVal) /
                (static_cast<double>(monoNs_ - prevNs) / 1e9);
        const auto &oldest = st.ring.front();
        if (monoNs_ > oldest.first)
            out.windowRatePerSec =
                static_cast<double>(value - oldest.second) /
                (static_cast<double>(monoNs_ - oldest.first) / 1e9);
    }
    st.ring.emplace_back(monoNs_, value);
    if (st.ring.size() > epochs_ + 1)
        st.ring.erase(st.ring.begin());
    out.resets = st.resets;
    return out;
}

StatTracker::GaugeStats
StatTracker::gauge(const std::string &name, std::int64_t value)
{
    GaugeState &st = gauges_[name];
    st.watermark = st.ring.empty() ? value : std::max(st.watermark, value);
    st.lastTick = tick_;
    st.ring.push_back(value);
    if (st.ring.size() > epochs_)
        st.ring.erase(st.ring.begin());
    return {st.watermark,
            *std::max_element(st.ring.begin(), st.ring.end())};
}

void
StatTracker::endTick()
{
    auto stale = [this](const auto &kv) {
        return kv.second.lastTick != tick_;
    };
    std::erase_if(counters_, stale);
    std::erase_if(gauges_, stale);
}

// ----- publisher ----------------------------------------------------

namespace {

/** Ring size K = round(window / interval); 0 = 10 intervals. */
std::size_t
epochsFor(const TelemetryPublisher::Options &o)
{
    if (o.interval <= 0)
        return 1;
    TimeNs window = o.window != 0 ? o.window : 10 * o.interval;
    double k = static_cast<double>(window) /
               static_cast<double>(o.interval);
    return std::clamp<std::size_t>(static_cast<std::size_t>(k + 0.5), 1,
                                   512);
}

} // namespace

TelemetryPublisher::TelemetryPublisher(MetricsRegistry *registry,
                                       SpanCollector *spans,
                                       Options options)
    : registry_(registry), spans_(spans), options_(std::move(options)),
      tracker_(epochsFor(options_))
{
    fatal_if(options_.interval <= 0,
             "telemetry interval must be positive");
    if (registry_)
        registry_->enableWindows(windowEpochs());
    if (spans_)
        spans_->setWindowEpochs(windowEpochs());
    // Baseline for uptime even when only tickNow() is used (tests,
    // final flush) and start() never runs.
    startedAt_ = clockNs(CLOCK_MONOTONIC);
    // Before the first tick readers get an empty seq-0 snapshot whose
    // checksum verifies like any other.
    auto empty = std::make_shared<TelemetrySnapshot>();
    empty->checksum = empty->computeChecksum();
    current_ = std::move(empty);
}

TelemetryPublisher::~TelemetryPublisher()
{
    stop();
}

void
TelemetryPublisher::start()
{
    if (publisher_.joinable())
        return;
    stop_.store(false, std::memory_order_release);
    if (options_.installSigusr2) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = sigusr2Handler;
        sa.sa_flags = SA_RESTART;
        ::sigaction(SIGUSR2, &sa, nullptr);
    }
    if (options_.port >= 0 && openListener())
        listener_ = std::thread([this] { listenerLoop(); });
    publisher_ = std::thread([this] { publisherLoop(); });
}

void
TelemetryPublisher::stop()
{
    if (!publisher_.joinable() && !listener_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        stop_.store(true, std::memory_order_release);
    }
    wakeCv_.notify_all();
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (publisher_.joinable())
        publisher_.join();
    if (listener_.joinable())
        listener_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        boundPort_ = -1;
    }
}

void
TelemetryPublisher::dumpNow()
{
    dumpRequested_.store(true, std::memory_order_release);
    wakeCv_.notify_all();
}

void
TelemetryPublisher::publisherLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(wakeMutex_);
            wakeCv_.wait_for(
                lock, std::chrono::nanoseconds(options_.interval),
                [this] {
                    return stop_.load(std::memory_order_acquire) ||
                           dumpRequested_.load(
                               std::memory_order_acquire) ||
                           g_sigDumpRequested.load(
                               std::memory_order_relaxed);
                });
        }
        if (stop_.load(std::memory_order_acquire))
            break;
        tickNow();
        bool wantDump =
            dumpRequested_.exchange(false, std::memory_order_acq_rel);
        wantDump |= g_sigDumpRequested.exchange(
            false, std::memory_order_relaxed);
        if (wantDump && !options_.dumpPath.empty())
            writeDump(*snapshot());
    }
    // Final tick so short-lived runs publish at least one snapshot.
    tickNow();
    if (!options_.dumpPath.empty() &&
        (dumpRequested_.load(std::memory_order_acquire) ||
         g_sigDumpRequested.exchange(false, std::memory_order_relaxed)))
        writeDump(*snapshot());
}

void
TelemetryPublisher::tickNow()
{
    std::lock_guard<std::mutex> lock(tickMutex_);
    buildAndPublish();
}

void
TelemetryPublisher::buildAndPublish()
{
    // Serialised by tickMutex_ (the only writer path): this thread is
    // the only one that replaces current_, so seq rises by one with
    // every swap and no reader can see it go backwards.
    std::uint64_t mono = clockNs(CLOCK_MONOTONIC);

    TelemetrySnapshot snap;
    snap.seq = current_->seq + 1;
    snap.wallNs = clockNs(CLOCK_REALTIME);
    snap.monoNs = mono;
    snap.uptimeSec =
        static_cast<double>(mono - startedAt_) / 1e9;
    snap.intervalSec = static_cast<double>(options_.interval) / 1e9;
    snap.windowEpochs = windowEpochs();
    snap.windowSec =
        snap.intervalSec * static_cast<double>(windowEpochs());

    if (registry_) {
        runSamplers(*registry_);
        MetricsSnapshot values = registry_->snapshotValues();
        tracker_.beginTick(mono);
        snap.counters.reserve(values.counters.size());
        for (auto &[name, value] : values.counters) {
            StatTracker::CounterStats s = tracker_.counter(name, value);
            snap.counters.push_back({name, value, s.ratePerSec,
                                     s.windowRatePerSec, s.resets});
        }
        snap.gauges.reserve(values.gauges.size());
        for (auto &[name, value] : values.gauges) {
            StatTracker::GaugeStats s = tracker_.gauge(name, value);
            snap.gauges.push_back(
                {name, value, s.watermark, s.windowWatermark});
        }
        tracker_.endTick();

        snap.timers.reserve(values.timers.size());
        for (auto &tv : values.timers) {
            TelemetrySnapshot::TimerSample t =
                sampleTimer(tv.name, tv.hist);
            t.windowed = tv.windowed;
            if (tv.windowed)
                t.window = HistStats::of(tv.window);
            snap.timers.push_back(std::move(t));
        }
    }

    if (spans_) {
        auto tenants = spans_->tenantStats();
        auto windows = spans_->tenantWindowStats();
        snap.spans.reserve(tenants.size());
        for (const auto &[tenant, stats] : tenants) {
            TenantSpans t;
            t.tenant = tenant;
            t.completed = stats.completed;
            t.cancelled = stats.cancelled;
            t.violations = stats.violations;
            auto wit = windows.find(tenant);
            if (wit != windows.end()) {
                t.window.completed = wit->second.completed;
                t.window.cancelled = wit->second.cancelled;
                t.window.violations = wit->second.violations;
            }
            for (const SpanPart &p : kSpanParts) {
                t.*p.life = sampleTimer(p.name, stats.*p.hist);
                if (wit != windows.end())
                    t.window.*p.window = HistStats::of(wit->second.*p.hist);
            }
            snap.spans.push_back(std::move(t));
        }
        snap.spanInvariantViolations = spans_->invariantViolations();
        snap.spanAnomalies = spans_->anomalies().total();
    }

    snap.checksum = snap.computeChecksum();

    // Retire the live window epochs only after the snapshot captured
    // them: each published window covers the K intervals ending now.
    if (registry_)
        registry_->rotateWindows();
    if (spans_)
        spans_->rotateWindows();

    // Publish by pointer swap. The previous snapshot is released
    // outside the lock, by this thread or by its last reader.
    std::shared_ptr<const TelemetrySnapshot> next =
        std::make_shared<const TelemetrySnapshot>(std::move(snap));
    std::lock_guard<std::mutex> lock(snapMutex_);
    current_.swap(next);
}

std::shared_ptr<const TelemetrySnapshot>
TelemetryPublisher::snapshot() const
{
    std::lock_guard<std::mutex> lock(snapMutex_);
    return current_;
}

void
TelemetryPublisher::writeDump(const TelemetrySnapshot &snap)
{
    std::ofstream out(options_.dumpPath);
    if (!out) {
        warn_once("telemetry: cannot open dump path '%s'",
                  options_.dumpPath.c_str());
        return;
    }
    out << renderTelemetryJson(snap);
}

// ----- HTTP listener ------------------------------------------------

bool
TelemetryPublisher::openListener()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        warn_once("telemetry: socket() failed: %s",
                  std::strerror(errno));
        return false;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(options_.port));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        warn_once("telemetry: cannot listen on 127.0.0.1:%d: %s",
                  options_.port, std::strerror(errno));
        ::close(fd);
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    boundPort_ = ntohs(addr.sin_port);
    listenFd_ = fd;
    return true;
}

void
TelemetryPublisher::listenerLoop()
{
    while (!stop_.load(std::memory_order_acquire)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int r = ::poll(&pfd, 1, 200);
        if (stop_.load(std::memory_order_acquire))
            break;
        if (r <= 0)
            continue;
        int client = ::accept(listenFd_, nullptr, nullptr);
        if (client < 0)
            continue;
        serveClient(client);
        ::close(client);
    }
}

void
TelemetryPublisher::serveClient(int fd)
{
    // One short request per connection; a scrape request line always
    // fits one read on loopback.
    char buf[2048];
    ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
    if (n <= 0)
        return;
    buf[n] = '\0';
    std::string req(buf);
    std::string path = "/";
    if (req.compare(0, 4, "GET ") == 0) {
        auto end = req.find(' ', 4);
        if (end != std::string::npos)
            path = req.substr(4, end - 4);
    }

    std::string body;
    std::string type = "text/plain; charset=utf-8";
    int code = 200;
    if (path == "/metrics" || path == "/") {
        body = renderPrometheus(*snapshot());
        type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (path == "/metrics.json" || path == "/json") {
        body = renderTelemetryJson(*snapshot());
        type = "application/json";
    } else if (path == "/healthz") {
        body = "ok\n";
    } else {
        body = "not found\n";
        code = 404;
    }

    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "HTTP/1.1 " << code << (code == 200 ? " OK" : " Not Found")
       << "\r\nContent-Type: " << type
       << "\r\nContent-Length: " << body.size()
       << "\r\nConnection: close\r\n\r\n"
       << body;
    std::string response = os.str();
    std::size_t sent = 0;
    while (sent < response.size()) {
        ssize_t w = ::send(fd, response.data() + sent,
                           response.size() - sent, MSG_NOSIGNAL);
        if (w <= 0)
            break;
        sent += static_cast<std::size_t>(w);
    }
}

} // namespace preempt::obs

#endif // PREEMPT_OBS_DISABLED
