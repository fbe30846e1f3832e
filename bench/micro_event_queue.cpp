/**
 * @file
 * Microbenchmark of the discrete-event hot path, and the first entry
 * in the repo's perf-regression trajectory.
 *
 * Every figure and table in this reproduction is driven through
 * `sim::EventQueue`, so its schedule/cancel/fire cost is the simulator
 * equivalent of the kernel-timer overhead the paper's LibUtimer
 * exists to avoid. This bench pits the current implementation
 * (generation-tagged slot arena + implicit 4-ary heap + inline
 * callback storage) against a frozen copy of the seed implementation
 * (std::function + std::priority_queue + two unordered_sets) on four
 * mixes:
 *
 *   fifo          schedule N ascending-time events, fire them all —
 *                 the pure throughput path.
 *   cancel_heavy  schedule, then cancel ~75% before firing — a
 *                 cancellation stress test. The simulator itself
 *                 almost never cancels: the Fig. 8 cells make 2
 *                 cancels in 2.85 M events.
 *   steady_state  a large fixed population of outstanding events; each
 *                 fire schedules a successor.
 *   sim_shaped    the traffic the simulator serves: 8 live events, no
 *                 cancels, each fire scheduling its successor, driven
 *                 through Simulator::runUntil (the legacy side through
 *                 the seed's runUntil loop) with a small trivially
 *                 copyable capture, like the models' `[this, id]`.
 *
 * Emits BENCH_eventqueue.json (events/sec per mix per implementation,
 * plus speedups, and the host's cpu count) for later PRs to regress
 * against.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/cli.hh"
#include "obs/session.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "preemptible/hosttime.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"

using namespace preempt;

namespace {

/**
 * Frozen copy of the seed EventQueue (PR 0) kept as the bench
 * baseline: heap-allocated std::function callbacks, a binary
 * std::priority_queue, and pending_/cancelled_ hash sets paying two
 * lookups per event. Do not "fix" it — its job is to not change.
 */
class LegacyEventQueue
{
  public:
    using EventId = std::uint64_t;

    LegacyEventQueue() : nextSeq_(1) {}

    EventId
    schedule(TimeNs when, std::function<void(TimeNs)> fn)
    {
        EventId id = nextSeq_++;
        heap_.push(Entry{when, id, std::move(fn)});
        pending_.insert(id);
        return id;
    }

    void
    cancel(EventId id)
    {
        auto it = pending_.find(id);
        if (it == pending_.end())
            return;
        pending_.erase(it);
        cancelled_.insert(id);
    }

    bool
    empty()
    {
        skipDead();
        return heap_.empty();
    }

    TimeNs
    nextTime()
    {
        skipDead();
        return heap_.top().when;
    }

    TimeNs
    runOne()
    {
        skipDead();
        Entry entry = std::move(const_cast<Entry &>(heap_.top()));
        heap_.pop();
        pending_.erase(entry.id);
        entry.fn(entry.when);
        return entry.when;
    }

  private:
    struct Entry
    {
        TimeNs when;
        EventId id;
        std::function<void(TimeNs)> fn;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id;
        }
    };

    void
    skipDead()
    {
        while (!heap_.empty()) {
            auto it = cancelled_.find(heap_.top().id);
            if (it == cancelled_.end())
                return;
            cancelled_.erase(it);
            heap_.pop();
        }
    }

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::unordered_set<EventId> pending_;
    std::unordered_set<EventId> cancelled_;
    EventId nextSeq_;
};

/**
 * The seed Simulator's clock and run loop over the legacy queue:
 * empty(), then nextTime() twice, then runOne() for every event.
 */
class LegacySimulator
{
  public:
    template <typename F>
    void
    after(TimeNs delay, F &&fn)
    {
        events_.schedule(now_ + delay, std::forward<F>(fn));
    }

    void
    runUntil(TimeNs limit)
    {
        while (!events_.empty() && events_.nextTime() <= limit) {
            now_ = events_.nextTime();
            events_.runOne();
        }
        if (now_ < limit && events_.empty())
            now_ = limit;
    }

  private:
    TimeNs now_ = 0;
    LegacyEventQueue events_;
};

/** Events/sec over `ops` scheduled events for one mix. */
struct MixResult
{
    double current = 0;
    double legacy = 0;
    double speedup() const { return legacy > 0 ? current / legacy : 0; }
};

/** The per-event payload: a core id and a request pointer, like the
 *  runtime's completion/preemption lambdas. */
struct Payload
{
    int core;
    std::uint64_t *sink;
};

template <typename Q>
double
runFifo(int ops)
{
    Q q;
    std::uint64_t sink = 0;
    Payload p{3, &sink};
    TimeNs t0 = runtime::hostNowNs();
    for (int i = 0; i < ops; ++i) {
        q.schedule(static_cast<TimeNs>(i) + 1, [p](TimeNs t) {
            *p.sink += t + static_cast<TimeNs>(p.core);
        });
    }
    while (!q.empty())
        q.runOne();
    TimeNs t1 = runtime::hostNowNs();
    panic_if(sink == 0, "bench sink unset");
    return static_cast<double>(ops) / nsToSec(t1 - t0);
}

template <typename Q>
double
runCancelHeavy(int ops, Rng &rng)
{
    Q q;
    std::uint64_t sink = 0;
    Payload p{5, &sink};
    // Both implementations use std::uint64_t handles.
    std::vector<std::uint64_t> ids;
    ids.reserve(256);
    TimeNs t0 = runtime::hostNowNs();
    int scheduled = 0;
    TimeNs now = 0;
    while (scheduled < ops) {
        // A batch of armed preemption deadlines...
        ids.clear();
        for (int i = 0; i < 256 && scheduled < ops; ++i, ++scheduled) {
            ids.push_back(q.schedule(now + 100 + rng.below(1000),
                                     [p](TimeNs t) { *p.sink += t; }));
        }
        // ...75% of which are revoked because the function finished
        // inside its quantum.
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (i % 4 != 0)
                q.cancel(ids[i]);
        }
        while (!q.empty())
            now = q.runOne();
    }
    TimeNs t1 = runtime::hostNowNs();
    return static_cast<double>(ops) / nsToSec(t1 - t0);
}

template <typename Q>
double
runSteadyState(int ops, int population, Rng &rng)
{
    Q q;
    std::uint64_t sink = 0;
    Payload p{7, &sink};
    for (int i = 0; i < population; ++i) {
        q.schedule(1 + rng.below(10000),
                   [p](TimeNs t) { *p.sink += t; });
    }
    TimeNs t0 = runtime::hostNowNs();
    for (int i = 0; i < ops; ++i) {
        TimeNs now = q.runOne();
        q.schedule(now + 1 + rng.below(10000),
                   [p](TimeNs t) { *p.sink += t; });
    }
    TimeNs t1 = runtime::hostNowNs();
    return static_cast<double>(ops) / nsToSec(t1 - t0);
}

template <typename S>
double
runSimShaped(int ops, Rng &rng)
{
    struct State
    {
        S sim;
        Rng *rng;
        int left;
        int live;
        std::uint64_t sink = 0;

        void
        fire(TimeNs t)
        {
            sink += t;
            if (--left >= live)
                sim.after(1 + rng->below(1000),
                          [this](TimeNs at) { fire(at); });
        }
    };
    State st{S{}, &rng, ops, std::min(ops, 8)};
    TimeNs t0 = runtime::hostNowNs();
    for (int i = 0; i < st.live; ++i)
        st.sim.after(1 + rng.below(1000), [&st](TimeNs at) { st.fire(at); });
    st.sim.runUntil(kTimeNever);
    TimeNs t1 = runtime::hostNowNs();
    panic_if(st.left != 0, "sim_shaped fired %d events too few", st.left);
    return static_cast<double>(ops) / nsToSec(t1 - t0);
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv);
    obs::Session obsSession(cli);
    int ops = static_cast<int>(cli.getInt("ops", 2000000));
    int population = static_cast<int>(cli.getInt("population", 4096));
    int reps = static_cast<int>(cli.getInt("reps", 3));
    std::string out = cli.getString("out", "BENCH_eventqueue.json");
    cli.rejectUnknown();

    unsigned hostCpus = std::thread::hardware_concurrency();
    if (hostCpus == 0)
        hostCpus = 1;

    MixResult fifo, cancel, steady, simShaped;
    // Best-of-reps for each side independently: robust to scheduler
    // noise on a shared machine.
    for (int r = 0; r < reps; ++r) {
        Rng rng(42 + static_cast<std::uint64_t>(r));
        fifo.current =
            std::max(fifo.current, runFifo<sim::EventQueue>(ops));
        fifo.legacy = std::max(fifo.legacy, runFifo<LegacyEventQueue>(ops));
        cancel.current = std::max(
            cancel.current, runCancelHeavy<sim::EventQueue>(ops, rng));
        cancel.legacy = std::max(
            cancel.legacy, runCancelHeavy<LegacyEventQueue>(ops, rng));
        steady.current = std::max(
            steady.current,
            runSteadyState<sim::EventQueue>(ops, population, rng));
        steady.legacy = std::max(
            steady.legacy,
            runSteadyState<LegacyEventQueue>(ops, population, rng));
        simShaped.current = std::max(
            simShaped.current, runSimShaped<sim::Simulator>(ops, rng));
        simShaped.legacy = std::max(
            simShaped.legacy, runSimShaped<LegacySimulator>(ops, rng));
    }

    ConsoleTable table("EventQueue throughput (million events/sec, "
                       "best of " + std::to_string(reps) + ")");
    table.header({"mix", "current", "legacy (seed)", "speedup"});
    auto row = [&](const char *name, const MixResult &m) {
        char cur[32], leg[32], spd[32];
        std::snprintf(cur, sizeof(cur), "%.2f", m.current / 1e6);
        std::snprintf(leg, sizeof(leg), "%.2f", m.legacy / 1e6);
        std::snprintf(spd, sizeof(spd), "%.2fx", m.speedup());
        table.row({name, cur, leg, spd});
    };
    row("fifo", fifo);
    row("cancel_heavy", cancel);
    row("steady_state", steady);
    row("sim_shaped", simShaped);
    table.print();

    FILE *f = std::fopen(out.c_str(), "w");
    fatal_if(!f, "cannot open %s for writing", out.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"eventqueue\",\n");
    std::fprintf(f, "  \"unit\": \"events_per_sec\",\n");
    std::fprintf(f, "  \"ops\": %d,\n", ops);
    std::fprintf(f, "  \"population\": %d,\n", population);
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"host_cpus\": %u,\n", hostCpus);
    auto mix = [&](const char *name, const MixResult &m, bool last) {
        std::fprintf(f,
                     "  \"%s\": {\"current\": %.0f, \"legacy\": %.0f, "
                     "\"speedup\": %.3f}%s\n",
                     name, m.current, m.legacy, m.speedup(),
                     last ? "" : ",");
    };
    mix("fifo", fifo, false);
    mix("cancel_heavy", cancel, false);
    mix("steady_state", steady, false);
    mix("sim_shaped", simShaped, true);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}
