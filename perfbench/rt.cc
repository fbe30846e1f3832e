/**
 * @file
 * Runtime workloads: a closed loop driving the real PreemptibleRuntime.
 *
 * A fixed window of latency-critical (LC) tasks is kept outstanding.
 * On rt_short and rt_short_obs the loop is chained: the load generator
 * (the caller) seeds the window and sleeps, and each LC body submits
 * its successor, so the single worker is the only busy thread. On
 * rt_colocate the generator itself keeps the LC window and a standing
 * backlog of best-effort (BE) tasks outstanding; with 2 workers and the
 * polling LibUtimer thread that is 4 busy threads, within a 4-CPU host.
 *
 * Every task body is the benchmark's own: an LC body spins for its
 * drawn duration and stamps its first and last clock reads; a BE body
 * spins until it has *run* for its drawn work, splitting its wall time
 * into slices and pauses (stats.hh SliceClock), so preemption neither
 * shortens nor lengthens the work it does. The runtime is only called
 * through its public API; nothing under src/ is instrumented.
 *
 * A run is a sequence of 100 ms phases, each extended until it has
 * enough LC samples for its p99; each metric is the median over the
 * phases (stats.hh medianOf). With --trace=1 untraced and traced phases
 * alternate: the untraced ones give trace_overhead_ratio and the
 * latency the split must add up to, the traced ones every per-layer
 * metric.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <time.h>

#include "common/rng.hh"
#include "obs/metrics.hh"
#include "obs/spans.hh"
#include "obs/trace.hh"
#include "perfbench/report.hh"
#include "preemptible/runtime.hh"

namespace perfbench {
namespace {

using preempt::runtime::PreemptibleRuntime;
using preempt::runtime::RuntimeStats;

struct RtWorkload
{
    const char *name;
    int workers;               ///< worker threads
    bool chained;              ///< each LC body submits its successor
    bool obs;                  ///< registry + tracer + live span collector
    std::uint64_t quantumNs;   ///< time quantum
    std::uint64_t lcWindow;    ///< LC tasks kept outstanding
    std::uint32_t lcSpinLo;    ///< LC body length, uniform in [lo, hi] ns
    std::uint32_t lcSpinHi;
    std::uint64_t beWindow;    ///< BE tasks kept outstanding (0 = none)
    std::uint32_t beWorkLo;    ///< BE running time, uniform in [lo, hi] ns
    std::uint32_t beWorkHi;
};

/**
 * Quantum of the chained workloads. A chained body calls submit(),
 * which takes locks and allocates; preempted there, the next body's
 * submit() on the same thread would deadlock. The default 4 ms quantum
 * can expire inside a ~1 us body when the hypervisor deschedules the
 * CPU for longer, so these workloads arm a quantum no body reaches.
 */
constexpr std::uint64_t kChainQuantumNs = 1'000'000'000;

constexpr RtWorkload kWorkloads[] = {
    {"rt_short", 1, true, false, kChainQuantumNs, 32, 500, 1500, 0, 0, 0},
    {"rt_short_obs", 1, true, true, kChainQuantumNs, 32, 500, 1500, 0, 0, 0},
    {"rt_colocate", 2, false, false, 50000, 4, 4000, 6000, 4, 800000,
     1200000},
};

constexpr int kSetups = 61;                ///< set-ups timed per run
constexpr std::uint64_t kPhaseNs = 100'000'000; ///< one measured phase
constexpr std::uint64_t kMinLc = 2000;     ///< LC tasks per phase, at least
constexpr std::uint64_t kWarmupLc = 8192;  ///< LC tasks per warm-up
constexpr std::size_t kLcCap = 1 << 18;    ///< LC records per phase
constexpr std::size_t kBeCap = 1 << 14;    ///< BE records per phase
constexpr std::uint64_t kGapNs = 2000;     ///< spin steps above = pause
constexpr std::uint64_t kDrainLimitNs = 30'000'000'000ULL;
constexpr std::size_t kTraceRowsCap = 200000; ///< rows written per run

struct LcRec
{
    std::uint64_t t0 = 0; ///< just before submit(); 0 = refused
    std::uint64_t t1 = 0; ///< submit() returned (traced phases)
    std::uint64_t t2 = 0; ///< body's first clock read (traced phases)
    std::uint64_t t3 = 0; ///< body's last clock read of its spin
    std::uint64_t t4 = 0; ///< chained: successor's submit returned
    std::uint32_t spin = 0;
    int worker = -1;      ///< benchmark-assigned worker index (traced)
};

struct BeRec
{
    std::uint64_t t0 = 0;
    std::uint64_t t2 = 0;
    std::uint64_t t3 = 0;
    std::uint64_t running = 0;
    std::uint32_t work = 0;
    SliceClock clock{0, 0}; ///< copied out of the body (traced phases)
};

/** State shared by the generator and the task bodies of one run. */
struct Ctx
{
    const RtWorkload *w = nullptr;
    PreemptibleRuntime *rt = nullptr;
    std::uint64_t seed = 0;
    bool traced = false;
    /// Chained mode: bodies submit successors until `stop` or `maxLc`.
    std::atomic<bool> stop{false};
    std::uint64_t maxLc = 0;
    std::atomic<std::uint64_t> lcSent{0};
    std::atomic<std::uint64_t> lcAccepted{0};
    std::vector<LcRec> lc = std::vector<LcRec>(kLcCap);
    std::vector<BeRec> be = std::vector<BeRec>(kBeCap);
    std::size_t lcUsed = 0; ///< records the last phase wrote
    std::size_t beUsed = 0;
    std::atomic<std::uint64_t> lcDone{0};
    std::atomic<std::uint64_t> beDone{0};
};

std::atomic<int> gNextWorker{0};
thread_local int tlWorker = -1;

/**
 * The calling worker thread's index, numbered by first use. Out of
 * line so the thread-local address is computed afresh on every call:
 * a preempted body may resume on another thread.
 */
[[gnu::noinline]] int
workerIndex()
{
    if (tlWorker < 0)
        tlWorker = gNextWorker.fetch_add(1, std::memory_order_relaxed);
    return tlWorker;
}

/** LC body length of task `seq`: a pure function of the seed. */
std::uint32_t
lcSpin(const Ctx &ctx, std::uint64_t seq)
{
    std::uint64_t z = ctx.seed * 0x9e3779b97f4a7c15ULL + seq;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL; // splitmix64 finaliser
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const RtWorkload &w = *ctx.w;
    return w.lcSpinLo +
           static_cast<std::uint32_t>(z % (w.lcSpinHi - w.lcSpinLo + 1));
}

void submitLc(Ctx &ctx);

/** 16 bytes, so std::function keeps it inline (no allocation). */
struct LcBody
{
    Ctx *ctx;
    std::uint64_t seq;

    void
    operator()() const
    {
        LcRec &r = ctx->lc[seq];
        std::uint64_t start = nowNs();
        std::uint64_t end = start + r.spin;
        std::uint64_t t = start;
        while (t < end)
            t = nowNs();
        if (ctx->traced) {
            r.t2 = start;
            r.worker = workerIndex();
        }
        r.t3 = t;
        if (ctx->w->chained && !ctx->stop.load(std::memory_order_relaxed) &&
            ctx->lcSent.load(std::memory_order_relaxed) < ctx->maxLc) {
            submitLc(*ctx);
            if (ctx->traced)
                r.t4 = nowNs();
        }
        ctx->lcDone.fetch_add(1, std::memory_order_release);
    }
};

/**
 * Chained mode: submit the next LC task; the generator seeds the window
 * with it, and from then on each body calls it for its successor.
 */
void
submitLc(Ctx &ctx)
{
    std::uint64_t seq = ctx.lcSent.fetch_add(1, std::memory_order_relaxed);
    LcRec &r = ctx.lc[seq];
    r.spin = lcSpin(ctx, seq);
    std::function<void()> body(LcBody{&ctx, seq});
    r.t0 = nowNs();
    bool ok = ctx.rt->submit(std::move(body), 0);
    if (!ok)
        r.t0 = 0; // refused: the body will never touch r
    else if (ctx.traced)
        r.t1 = nowNs();
    if (ok)
        ctx.lcAccepted.fetch_add(1, std::memory_order_relaxed);
}

struct BeBody
{
    Ctx *ctx;
    std::uint64_t seq;

    void
    operator()() const
    {
        BeRec &r = ctx->be[seq];
        std::uint64_t start = nowNs();
        SliceClock clock(start, kGapNs);
        std::uint64_t t = start;
        while (clock.running() < r.work) {
            t = nowNs();
            clock.tick(t);
        }
        r.t2 = start;
        r.t3 = t;
        r.running = clock.running();
        if (ctx->traced)
            r.clock = clock;
        ctx->beDone.fetch_add(1, std::memory_order_release);
    }
};

/** The obs plane of rt_short_obs, installed for the whole run. */
class ObsPlane
{
  public:
    ObsPlane() : tracer_(tracerOptions())
    {
        preempt::obs::setMetricsRegistry(&registry_);
        preempt::obs::setTracer(&tracer_);
        preempt::obs::setSpanCollector(&spans_);
    }

    ~ObsPlane()
    {
        preempt::obs::setSpanCollector(nullptr);
        preempt::obs::setTracer(nullptr);
        preempt::obs::setMetricsRegistry(nullptr);
    }

    ObsPlane(const ObsPlane &) = delete;
    ObsPlane &operator=(const ObsPlane &) = delete;

    const preempt::obs::Tracer &tracer() const { return tracer_; }
    const preempt::obs::SpanCollector &spans() const { return spans_; }

  private:
    static preempt::obs::Tracer::Options
    tracerOptions()
    {
        // Worker indices and LibUtimer slot ids stay below 8; 8 rings
        // of the default depth keep the tracer at ~21 MB.
        preempt::obs::Tracer::Options o;
        o.cores = 8;
        return o;
    }

    preempt::obs::MetricsRegistry registry_;
    preempt::obs::Tracer tracer_;
    preempt::obs::SpanCollector spans_;
};

/** What one phase did, for the metrics and checks. */
struct Phase
{
    std::uint64_t lcSent = 0, lcAccepted = 0;
    std::uint64_t beSent = 0, beAccepted = 0;
    std::uint64_t start = 0, loopEnd = 0, lcEnd = 0, beEnd = 0;
    std::uint64_t fullNs = 0; ///< generator waited with every window full
    RuntimeStats before, after;
    std::uint64_t traceWritten = 0, traceDropped = 0;

    std::uint64_t
    tasks() const
    {
        return lcAccepted + beAccepted;
    }
};

/**
 * Run the closed loop until `durationNs` passed or `maxLc` LC tasks
 * were sent, then wait for every accepted task to finish.
 */
Phase
runPhase(PreemptibleRuntime &rt, Ctx &ctx, const RtWorkload &w,
         preempt::Rng &rng, std::uint64_t durationNs, std::uint64_t maxLc,
         const ObsPlane *obs, Report &out)
{
    Phase p;
    std::fill_n(ctx.lc.begin(), ctx.lcUsed, LcRec{});
    std::fill_n(ctx.be.begin(), ctx.beUsed, BeRec{});
    ctx.lcDone.store(0);
    ctx.beDone.store(0);
    ctx.lcSent.store(0);
    ctx.lcAccepted.store(0);
    ctx.stop.store(false);
    // Chained bodies may overshoot the cap by the window they race with.
    maxLc = std::min<std::uint64_t>(maxLc, kLcCap - w.lcWindow);
    ctx.maxLc = maxLc;
    p.before = rt.stats();
    if (obs) {
        p.traceWritten = obs->tracer().totalWritten();
        p.traceDropped = obs->tracer().totalDropped();
    }

    bool full = false;
    std::uint64_t fullSince = 0;
    p.start = nowNs();
    std::uint64_t deadline = durationNs == 0
                                 ? std::numeric_limits<std::uint64_t>::max()
                                 : p.start + durationNs;
    // A phase also runs until kMinLc LC tasks were accepted, so that its
    // p99 is resolved even when a hypervisor pause stalled most of it.
    auto over = [&](std::uint64_t t, std::uint64_t sent,
                    std::uint64_t accepted) {
        return sent >= maxLc ||
               (t >= deadline &&
                (accepted >= kMinLc || t - deadline > kDrainLimitNs));
    };
    if (w.chained) {
        // Seed the window, then sleep: the bodies keep it full, so the
        // only busy thread is the worker.
        for (std::uint64_t i = 0; i < w.lcWindow; ++i)
            submitLc(ctx);
        for (;;) {
            std::uint64_t t = nowNs();
            if (over(t, ctx.lcSent.load(std::memory_order_relaxed),
                     ctx.lcAccepted.load(std::memory_order_relaxed)))
                break;
            std::uint64_t nap =
                t < deadline ? std::min<std::uint64_t>(deadline - t, 1'000'000)
                             : 100'000;
            timespec ts{0, static_cast<long>(nap)};
            ::nanosleep(&ts, nullptr);
        }
        ctx.stop.store(true, std::memory_order_relaxed);
        // A body counts its successor accepted before itself done, so
        // reading done first and then accepted can only match once no
        // task is left to submit another. A stuck run falls through to
        // the drain check below.
        std::uint64_t stopped = nowNs();
        for (;;) {
            std::uint64_t done = ctx.lcDone.load(std::memory_order_acquire);
            if (done == ctx.lcAccepted.load(std::memory_order_acquire) ||
                nowNs() - stopped > kDrainLimitNs)
                break;
            __builtin_ia32_pause();
        }
        p.lcSent = ctx.lcSent.load();
        p.lcAccepted = ctx.lcAccepted.load();
        fullSince = p.start;
        full = true; // by construction the window never has room
    }
    for (; !w.chained;) {
        std::uint64_t t = nowNs();
        if (over(t, p.lcSent, p.lcAccepted))
            break;
        if (p.lcAccepted - ctx.lcDone.load(std::memory_order_acquire) <
            w.lcWindow) {
            std::uint64_t seq = p.lcSent++;
            LcRec &r = ctx.lc[seq];
            r.spin = w.lcSpinLo + rng.below(w.lcSpinHi - w.lcSpinLo + 1);
            std::function<void()> body(LcBody{&ctx, seq});
            r.t0 = nowNs();
            bool ok = rt.submit(std::move(body), 0);
            if (!ok)
                r.t0 = 0; // refused: the body will never touch r
            else if (ctx.traced)
                r.t1 = nowNs();
            p.lcAccepted += ok;
        } else if (p.beAccepted -
                           ctx.beDone.load(std::memory_order_acquire) <
                       w.beWindow &&
                   p.beSent < kBeCap) {
            std::uint64_t seq = p.beSent++;
            BeRec &r = ctx.be[seq];
            r.work = w.beWorkLo + rng.below(w.beWorkHi - w.beWorkLo + 1);
            std::function<void()> body(BeBody{&ctx, seq});
            r.t0 = nowNs();
            bool ok = rt.submit(std::move(body), 1);
            if (!ok)
                r.t0 = 0;
            p.beAccepted += ok;
        } else {
            if (!full) {
                full = true;
                fullSince = t;
            }
            __builtin_ia32_pause();
            continue;
        }
        if (full) {
            full = false;
            p.fullNs += t - fullSince;
        }
    }
    p.loopEnd = nowNs();
    ctx.lcUsed = p.lcSent;
    ctx.beUsed = p.beSent;
    if (full)
        p.fullNs += p.loopEnd - fullSince;

    while (ctx.lcDone.load(std::memory_order_acquire) < p.lcAccepted ||
           ctx.beDone.load(std::memory_order_acquire) < p.beAccepted) {
        if (nowNs() - p.loopEnd > kDrainLimitNs) {
            // Bodies still reference ctx: tasks never ran, the run
            // cannot finish cleanly.
            std::fprintf(stderr,
                         "perfbench: %s: tasks did not finish within "
                         "30 s (lc %llu/%llu, be %llu/%llu)\n",
                         w.name,
                         static_cast<unsigned long long>(ctx.lcDone.load()),
                         static_cast<unsigned long long>(p.lcAccepted),
                         static_cast<unsigned long long>(ctx.beDone.load()),
                         static_cast<unsigned long long>(p.beAccepted));
            std::fflush(stderr);
            std::_Exit(3);
        }
        __builtin_ia32_pause();
    }
    rt.quiesce();
    p.after = rt.stats();
    if (obs) {
        p.traceWritten = obs->tracer().totalWritten() - p.traceWritten;
        p.traceDropped = obs->tracer().totalDropped() - p.traceDropped;
    }
    for (std::uint64_t i = 0; i < p.lcSent; ++i)
        p.lcEnd = std::max(p.lcEnd, ctx.lc[i].t3);
    for (std::uint64_t i = 0; i < p.beSent; ++i)
        p.beEnd = std::max(p.beEnd, ctx.be[i].t3);

    // Correctness: bodies run = tasks accepted = the runtime's count.
    std::uint64_t done = ctx.lcDone.load() + ctx.beDone.load();
    std::uint64_t completed = p.after.completed - p.before.completed;
    out.check(done == p.tasks() && completed == p.tasks(),
              std::string(w.name) + ": bodies run " +
                  std::to_string(done) + ", tasks accepted " +
                  std::to_string(p.tasks()) + ", runtime completed " +
                  std::to_string(completed));
    if (w.chained) {
        std::uint64_t preempted = p.after.preemptions - p.before.preemptions;
        out.check(preempted == 0,
                  std::string(w.name) + ": " + std::to_string(preempted) +
                      " chained bodies were preempted");
    }
    std::uint64_t refused = (p.lcSent - p.lcAccepted) +
                            (p.beSent - p.beAccepted);
    std::uint64_t rejected =
        (p.after.rejectedFull - p.before.rejectedFull) +
        (p.after.rejectedPolicy - p.before.rejectedPolicy);
    out.check(refused == rejected,
              std::string(w.name) + ": " + std::to_string(refused) +
                  " refused submits but the runtime counted " +
                  std::to_string(rejected));
    for (std::uint64_t i = 0; i < p.lcSent; ++i) {
        const LcRec &r = ctx.lc[i];
        if (r.t0 != 0 && (r.t3 < r.t0 + r.spin)) {
            out.fail(std::string(w.name) + ": LC task " +
                     std::to_string(i) + " finished before it spun");
            break;
        }
    }
    return p;
}

double
us(double ns)
{
    return ns / 1e3;
}

/** End-to-end figures of one phase. */
struct PhaseE2e
{
    double opsPerS = 0, beOpsPerS = 0;
    double latP50 = 0, latP99 = 0, latMean = 0; ///< ns
    std::size_t samples = 0;
};

PhaseE2e
endToEnd(const Ctx &ctx, const Phase &p)
{
    PhaseE2e e;
    std::vector<std::uint64_t> lat;
    lat.reserve(p.lcAccepted);
    double sum = 0;
    for (std::uint64_t i = 0; i < p.lcSent; ++i) {
        const LcRec &r = ctx.lc[i];
        if (r.t0 != 0) {
            lat.push_back(r.t3 - r.t0);
            sum += static_cast<double>(r.t3 - r.t0);
        }
    }
    e.samples = lat.size();
    e.latMean = lat.empty() ? 0 : sum / static_cast<double>(lat.size());
    e.latP50 = quantile(lat, 0.50);
    e.latP99 = quantile(lat, 0.99);
    if (p.lcEnd > p.start)
        e.opsPerS = static_cast<double>(p.lcAccepted) /
                    (static_cast<double>(p.lcEnd - p.start) / 1e9);
    if (p.beEnd > p.start)
        e.beOpsPerS = static_cast<double>(p.beAccepted) /
                      (static_cast<double>(p.beEnd - p.start) / 1e9);
    return e;
}

/** Per-layer figures of one traced phase (ns unless named _ratio). */
struct PhaseLayers
{
    Split split;
    double submitP50 = 0, submitP99 = 0;
    double waitP50 = 0, waitP99 = 0;
    double gapP50 = 0;
    double busyRatio = 0;
    std::vector<double> overrun; ///< slice - quantum, all BE slices
    std::vector<double> pause;
};

PhaseLayers
layers(const Ctx &ctx, const Phase &p, std::uint64_t quantum, int workers)
{
    PhaseLayers l;
    std::vector<double> submit, wait, body;
    std::map<int, std::vector<const LcRec *>> byWorker;
    double busy = 0;
    for (std::uint64_t i = 0; i < p.lcSent; ++i) {
        const LcRec &r = ctx.lc[i];
        if (r.t0 == 0)
            continue;
        submit.push_back(static_cast<double>(r.t1 - r.t0));
        wait.push_back(static_cast<double>(r.t2) -
                       static_cast<double>(r.t1));
        body.push_back(static_cast<double>(r.t3 - r.t2));
        busy += static_cast<double>((r.t4 ? r.t4 : r.t3) - r.t2);
        byWorker[r.worker].push_back(&r);
    }
    l.split = Split{mean(submit), mean(wait), mean(body)};
    l.submitP50 = quantile(submit, 0.50);
    l.submitP99 = quantile(submit, 0.99);
    l.waitP50 = quantile(wait, 0.50);
    l.waitP99 = quantile(wait, 0.99);

    // Dispatch gap: end of one LC body to the start of the next on the
    // same worker, when the next was already submitted. A body that was
    // preempted and resumed elsewhere is filed under its last worker and
    // can overlap its neighbours there; such pairs are skipped.
    std::vector<double> gaps;
    for (auto &[worker, recs] : byWorker) {
        std::sort(recs.begin(), recs.end(),
                  [](const LcRec *a, const LcRec *b) { return a->t2 < b->t2; });
        for (std::size_t i = 1; i < recs.size(); ++i) {
            const LcRec &prev = *recs[i - 1], &next = *recs[i];
            std::uint64_t prevEnd = prev.t4 ? prev.t4 : prev.t3;
            if (next.t1 <= prevEnd && next.t2 >= prevEnd)
                gaps.push_back(static_cast<double>(next.t2 - prevEnd));
        }
    }
    l.gapP50 = quantile(gaps, 0.50);

    for (std::uint64_t i = 0; i < p.beSent; ++i) {
        const BeRec &r = ctx.be[i];
        if (r.t0 == 0)
            continue;
        busy += static_cast<double>(r.running);
        for (std::size_t k = 0; k < r.clock.recorded(); ++k) {
            l.overrun.push_back(static_cast<double>(r.clock.slice(k)) -
                                static_cast<double>(quantum));
            l.pause.push_back(static_cast<double>(r.clock.pause(k)));
        }
    }
    std::uint64_t end = std::max(p.lcEnd, p.beEnd);
    if (end > p.start)
        l.busyRatio = busy / (workers * static_cast<double>(end - p.start));
    return l;
}

/** Write the last traced phase's per-task timestamps (ns from start). */
void
writeTrace(const std::string &dir, const RtWorkload &w, const Ctx &ctx,
           const Phase &p)
{
    std::string path = dir + "/" + w.name + ".tasks.csv";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "class,seq,worker,submit_ns,submitted_ns,start_ns,"
                    "end_ns,slices\n");
    auto rel = [&](std::uint64_t t) {
        return static_cast<long long>(t) - static_cast<long long>(p.start);
    };
    std::size_t rows = 0;
    for (std::uint64_t i = 0; i < p.beSent && rows < kTraceRowsCap; ++i) {
        const BeRec &r = ctx.be[i];
        if (r.t0 == 0)
            continue;
        std::fprintf(f, "be,%llu,,%lld,,%lld,%lld,%zu\n",
                     static_cast<unsigned long long>(i), rel(r.t0),
                     rel(r.t2), rel(r.t3), r.clock.pauses() + 1);
        ++rows;
    }
    for (std::uint64_t i = 0; i < p.lcSent && rows < kTraceRowsCap; ++i) {
        const LcRec &r = ctx.lc[i];
        if (r.t0 == 0)
            continue;
        std::fprintf(f, "lc,%llu,%d,%lld,%lld,%lld,%lld,1\n",
                     static_cast<unsigned long long>(i), r.worker,
                     rel(r.t0), rel(r.t1), rel(r.t2), rel(r.t3));
        ++rows;
    }
    std::fclose(f);
}

double
perKtask(std::uint64_t count, std::uint64_t tasks)
{
    return tasks == 0 ? 0
                      : 1000.0 * static_cast<double>(count) /
                            static_cast<double>(tasks);
}

} // namespace

bool
runRuntimeWorkload(const Args &args, Report &out)
{
    const RtWorkload *found = nullptr;
    for (const RtWorkload &w : kWorkloads)
        if (args.workload == w.name)
            found = &w;
    if (!found)
        return false;
    const RtWorkload &w = *found;

    PreemptibleRuntime::Options opt;
    opt.nWorkers = w.workers;
    opt.quantum = w.quantumNs;
    opt.seed = args.seed;
    // Dedicated cores, as in the paper: idle workers poll instead of
    // napping. A nap idles its virtual CPU, and on a shared host the
    // wake-up then waits for the hypervisor (2-15% steal in runs with
    // naps, 0.2% without). The LibUtimer thread polls where preemption
    // is measured; on the chained workloads no deadline is near, and
    // its nap leaves the worker the only busy thread.
    opt.idleNap = 0;
    if (!w.chained)
        opt.timer.idleSleep = 0;
    std::uint64_t quantum = opt.quantum;
    preempt::Rng rng(args.seed, 0x7274); // 'rt'

    // Declared before the runtime: outlives it, so no task emits into
    // an uninstalled plane.
    std::unique_ptr<ObsPlane> obs;
    if (w.obs)
        obs = std::make_unique<ObsPlane>();
    auto ctx = std::make_unique<Ctx>();
    ctx->w = &w;
    ctx->seed = args.seed;

    // Set-up: construction plus a warm-up batch that faults in the
    // pooled stacks, timed kSetups times; the last runtime is kept.
    std::vector<double> setupS;
    std::unique_ptr<PreemptibleRuntime> rt;
    std::uint64_t completed = 0; // by every runtime of the run
    for (int i = 0; i < kSetups; ++i) {
        if (rt) {
            rt->shutdown();
            completed += rt->stats().completed;
            rt.reset();
        }
        gNextWorker.store(0);
        std::uint64_t t = nowNs();
        rt = std::make_unique<PreemptibleRuntime>(opt);
        ctx->rt = rt.get();
        runPhase(*rt, *ctx, w, rng, 0, kWarmupLc, obs.get(), out);
        setupS.push_back(static_cast<double>(nowNs() - t) / 1e9);
    }

    int nPhases = std::max(
        2, static_cast<int>(args.seconds * 1e9 / kPhaseNs + 0.5));
    if (args.trace)
        nPhases += nPhases % 2;
    std::uint64_t phaseNs =
        static_cast<std::uint64_t>(args.seconds * 1e9 / nPhases);

    struct Untraced
    {
        PhaseE2e e;
        double fullRatio;
    };
    struct Traced
    {
        double opsPerS;
        PhaseLayers l;
        Phase p;
    };
    std::vector<Untraced> plain;
    std::vector<Traced> traced;
    std::uint64_t samples = 0;
    for (int i = 0; i < nPhases; ++i) {
        ctx->traced = args.trace && i % 2 == 1;
        Phase p = runPhase(*rt, *ctx, w, rng, phaseNs, kLcCap, obs.get(),
                           out);
        out.tally.add(p.lcSent + p.beSent, p.tasks(),
                      ctx->lcDone.load() + ctx->beDone.load());
        PhaseE2e e = endToEnd(*ctx, p);
        out.check(tailResolved(e.samples, 0.99),
                  std::string(w.name) + ": only " +
                      std::to_string(e.samples) +
                      " LC latency samples in a phase; p99 needs 1000");
        samples += e.samples;
        if (!ctx->traced) {
            plain.push_back({e, static_cast<double>(p.fullNs) /
                                    static_cast<double>(p.loopEnd - p.start)});
            continue;
        }
        traced.push_back({e.opsPerS, layers(*ctx, p, quantum, w.workers), p});
        if (i == nPhases - 1 && !args.traceDir.empty())
            writeTrace(args.traceDir, w, *ctx, p);
    }
    rt->shutdown();
    completed += rt->stats().completed;
    rt.reset();
    if (obs) {
        // Every task the runtime finished closed exactly one span.
        out.check(obs->spans().finished() == completed,
                  std::string(w.name) + ": span collector finished " +
                      std::to_string(obs->spans().finished()) +
                      " spans for " + std::to_string(completed) +
                      " completed tasks");
    }

    // Every host-time figure is a median over the phases.
    auto plainMedian = [&](auto f) { return medianOf(plain, f); };
    double ops = plainMedian([](const Untraced &u) { return u.e.opsPerS; });
    out.set("setup_s", median(setupS), "s");
    out.set("ops_per_s", ops, "1/s");
    out.set("lat_p50_us",
            us(plainMedian([](const Untraced &u) { return u.e.latP50; })),
            "us");
    out.set("lat_p99_us",
            us(plainMedian([](const Untraced &u) { return u.e.latP99; })),
            "us");
    out.set("be_ops_per_s",
            plainMedian([](const Untraced &u) { return u.e.beOpsPerS; }),
            "1/s");
    out.set("fail_ratio", out.tally.ratio(), "ratio");
    out.set("loadgen.lat_samples", static_cast<double>(samples), "count");
    out.set("loadgen.window_full_ratio",
            plainMedian([](const Untraced &u) { return u.fullRatio; }),
            "ratio");
    if (!args.trace)
        return true;

    auto tracedMedian = [&](auto f) { return medianOf(traced, f); };
    std::vector<double> overrun, pause;
    std::uint64_t tasks = 0, preemptions = 0, steals = 0, migrations = 0,
                  written = 0, dropped = 0;
    for (const Traced &t : traced) {
        overrun.insert(overrun.end(), t.l.overrun.begin(), t.l.overrun.end());
        pause.insert(pause.end(), t.l.pause.begin(), t.l.pause.end());
        tasks += t.p.tasks();
        preemptions += t.p.after.preemptions - t.p.before.preemptions;
        steals += t.p.after.stealHits - t.p.before.stealHits;
        migrations += t.p.after.migrations - t.p.before.migrations;
        written += t.p.traceWritten;
        dropped += t.p.traceDropped;
    }
    Split split{
        tracedMedian([](const Traced &t) { return t.l.split.submit; }),
        tracedMedian([](const Traced &t) { return t.l.split.queueWait; }),
        tracedMedian([](const Traced &t) { return t.l.split.body; })};
    out.set("preemptible.submit_ns.p50",
            tracedMedian([](const Traced &t) { return t.l.submitP50; }), "ns");
    out.set("preemptible.submit_ns.p99",
            tracedMedian([](const Traced &t) { return t.l.submitP99; }), "ns");
    out.set("preemptible.queue_wait_us.p50",
            us(tracedMedian([](const Traced &t) { return t.l.waitP50; })),
            "us");
    out.set("preemptible.queue_wait_us.p99",
            us(tracedMedian([](const Traced &t) { return t.l.waitP99; })),
            "us");
    out.set("preemptible.dispatch_gap_ns.p50",
            tracedMedian([](const Traced &t) { return t.l.gapP50; }), "ns");
    out.set("preemptible.worker_busy_ratio",
            tracedMedian([](const Traced &t) { return t.l.busyRatio; }),
            "ratio");
    out.set("preemptible.slice_overrun_us.p50", us(quantile(overrun, 0.50)),
            "us");
    out.set("preemptible.slice_overrun_us.p99",
            tailResolved(overrun.size(), 0.99) ? us(quantile(overrun, 0.99))
                                                : 0,
            "us");
    out.set("preemptible.preempt_pause_us.p50", us(quantile(pause, 0.50)),
            "us");
    out.set("preemptible.preemptions_per_ktask", perKtask(preemptions, tasks),
            "1/ktask");
    out.set("preemptible.steal_hits_per_ktask", perKtask(steals, tasks),
            "1/ktask");
    out.set("preemptible.migrations_per_ktask", perKtask(migrations, tasks),
            "1/ktask");
    out.set("preemptible.split_residual_ratio",
            splitResidual(
                plainMedian([](const Untraced &u) { return u.e.latMean; }),
                split),
            "ratio");
    out.set("obs.trace_records_per_task",
            tasks == 0 ? 0
                       : static_cast<double>(written) /
                             static_cast<double>(tasks),
            "1/task");
    out.set("obs.trace_dropped_ratio",
            written == 0 ? 0
                         : static_cast<double>(dropped) /
                               static_cast<double>(written),
            "ratio");
    double tOps = tracedMedian([](const Traced &t) { return t.opsPerS; });
    out.set("trace_overhead_ratio", tOps > 0 ? ops / tOps : 0, "ratio");
    return true;
}

} // namespace perfbench
