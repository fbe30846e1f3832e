/** @file Tests for the deterministic event queue and the simulator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/simulator.hh"

namespace preempt::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](TimeNs) { order.push_back(3); });
    q.schedule(10, [&](TimeNs) { order.push_back(1); });
    q.schedule(20, [&](TimeNs) { order.push_back(2); });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&, i](TimeNs) { order.push_back(i); });
    while (!q.empty())
        q.runOne();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(10, [&](TimeNs) { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    EventId id = q.schedule(1, [](TimeNs) {});
    q.runOne();
    EXPECT_FALSE(q.cancel(id)); // must not corrupt accounting
    EXPECT_EQ(q.size(), 0u);
    bool fired = false;
    q.schedule(2, [&](TimeNs) { fired = true; });
    q.runOne();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, DoubleCancelIsNoop)
{
    EventQueue q;
    EventId id = q.schedule(10, [](TimeNs) {});
    q.schedule(20, [](TimeNs) {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelInvalidIsNoop)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(kInvalidEvent));
    EXPECT_FALSE(q.cancel(12345));
    EXPECT_TRUE(q.empty());
}

// A handle from a previous occupant of a reused arena slot must not
// cancel (or even see) the slot's current occupant.
TEST(EventQueue, StaleIdFromPreviousGenerationRejected)
{
    EventQueue q;
    EventId first = q.schedule(1, [](TimeNs) {});
    q.runOne(); // frees the slot; the next schedule reuses it
    bool fired = false;
    EventId second = q.schedule(2, [&](TimeNs) { fired = true; });
    EXPECT_NE(first, second);
    EXPECT_FALSE(q.cancel(first)) << "stale generation must be rejected";
    EXPECT_EQ(q.size(), 1u);
    q.runOne();
    EXPECT_TRUE(fired);

    // Same for a slot freed by cancellation rather than firing.
    EventId third = q.schedule(3, [](TimeNs) {});
    EXPECT_TRUE(q.cancel(third));
    EventId fourth = q.schedule(3, [](TimeNs) {});
    EXPECT_FALSE(q.cancel(third));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(fourth));
}

// Heavy schedule/cancel churn across slot reuse keeps accounting and
// firing order exact.
TEST(EventQueue, CancellationChurnKeepsOrderAndAccounting)
{
    EventQueue q;
    std::vector<TimeNs> fired;
    std::vector<EventId> ids;
    for (int round = 0; round < 50; ++round) {
        ids.clear();
        for (TimeNs t = 1; t <= 20; ++t) {
            TimeNs when = static_cast<TimeNs>(round) * 100 + t;
            ids.push_back(
                q.schedule(when, [&](TimeNs at) { fired.push_back(at); }));
        }
        // Cancel every other event, newest first.
        for (std::size_t i = ids.size(); i-- > 0;) {
            if (i % 2 == 1) {
                EXPECT_TRUE(q.cancel(ids[i]));
            }
        }
        EXPECT_EQ(q.size(), 10u);
        while (!q.empty())
            q.runOne();
    }
    ASSERT_EQ(fired.size(), 500u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LT(fired[i - 1], fired[i]);
    EXPECT_EQ(q.scheduledCount(), 1000u);
}

// Captures larger than the inline buffer take the heap fallback and
// must still move correctly through slot reuse.
TEST(EventQueue, LargeCaptureFallsBackToHeap)
{
    EventQueue q;
    struct Big
    {
        unsigned char pad[2 * EventCallback::kInlineSize];
        int *out;
    };
    int out = 0;
    Big big{};
    big.out = &out;
    q.schedule(5, [big](TimeNs) { *big.out = 7; });
    q.runOne();
    EXPECT_EQ(out, 7);
}

TEST(EventQueue, NextTimeTracksEarliestLive)
{
    EventQueue q;
    EventId early = q.schedule(10, [](TimeNs) {});
    q.schedule(20, [](TimeNs) {});
    EXPECT_EQ(q.nextTime(), 10u);
    q.cancel(early);
    EXPECT_EQ(q.nextTime(), 20u);
}

TEST(EventQueue, RunOneReturnsFireTime)
{
    EventQueue q;
    q.schedule(42, [](TimeNs t) { EXPECT_EQ(t, 42u); });
    EXPECT_EQ(q.runOne(), 42u);
}

// DESIGN.md section 7: the firing event's slot is freed before its
// callback runs, so cancelling it from inside that callback is a no-op
// and cannot hit the event that reuses the slot.
TEST(EventQueue, CancellingTheFiringEventFromItsCallbackIsNoop)
{
    EventQueue q;
    EventId self = kInvalidEvent;
    EventId successor = kInvalidEvent;
    bool cancelled = true;
    bool successorFired = false;
    self = q.schedule(10, [&](TimeNs) {
        // Reuses the slot `self` just vacated.
        successor = q.schedule(15, [&](TimeNs) { successorFired = true; });
        cancelled = q.cancel(self);
    });
    q.runOne();
    EXPECT_FALSE(cancelled);
    EXPECT_NE(successor, self);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.runOne(), 15u);
    EXPECT_TRUE(successorFired);

    // The simulator's loop pops differently; the rule is the same.
    Simulator sim(1);
    EventId tick = sim.after(5, [&](TimeNs) {
        cancelled = sim.events().cancel(tick);
    });
    cancelled = true;
    sim.runAll();
    EXPECT_FALSE(cancelled);
    EXPECT_EQ(sim.eventsRun(), 1u);
}

// A capture is destroyed exactly once, whether its event fires, is
// cancelled, or is still pending when the queue goes away; moving a
// callback through the arena never copies it.
TEST(EventQueue, SharedPtrCaptureDestroyedExactlyOnce)
{
    struct Padded
    {
        std::shared_ptr<int> token;
        unsigned char pad[2 * EventCallback::kInlineSize];
    };
    auto token = std::make_shared<int>(0);
    long seenWhileFiring = 0;
    {
        EventQueue q;
        q.schedule(1, [token, &seenWhileFiring](TimeNs) {
            seenWhileFiring = token.use_count();
        });
        EventId cancelled = q.schedule(2, [token](TimeNs) {});
        // Heap-backed: too big for the inline buffer.
        Padded big{token, {}};
        q.schedule(3, [big](TimeNs) {});
        big.token.reset();
        q.schedule(4, [token](TimeNs) {});
        // Grow the arena so every pending slot is relocated.
        std::vector<EventId> filler;
        for (int i = 0; i < 1000; ++i)
            filler.push_back(q.schedule(100, [](TimeNs) {}));
        for (EventId id : filler)
            q.cancel(id);
        EXPECT_EQ(token.use_count(), 5);

        q.runOne();
        EXPECT_EQ(seenWhileFiring, 5) << "firing must move, not copy";
        EXPECT_EQ(token.use_count(), 4) << "fired capture not destroyed";
        EXPECT_TRUE(q.cancel(cancelled));
        EXPECT_EQ(token.use_count(), 3) << "cancelled capture survived";
        q.runOne(); // the heap-backed one
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1) << "pending capture leaked";

    Simulator sim(1);
    sim.after(1, [token](TimeNs) {});
    sim.after(2, [token](TimeNs) {});
    sim.runUntil(1);
    EXPECT_EQ(token.use_count(), 2);
    sim.runAll();
    EXPECT_EQ(token.use_count(), 1);
}

// The firing callback is out of the arena while it runs, so it can
// schedule enough events to reallocate the slot vector and still read
// its own captures; everything it scheduled fires in (when, seq) order.
TEST(EventQueue, ArenaGrowthDuringFireKeepsOrder)
{
    constexpr int kBurst = 10000;
    Simulator sim(1);
    std::vector<std::pair<TimeNs, int>> fired;
    std::vector<std::pair<TimeNs, int>> expected;
    auto owner = std::make_shared<int>(kBurst);
    sim.after(1, [&sim, &fired, &expected, owner](TimeNs) {
        for (int i = 0; i < *owner; ++i) {
            // 97 distinct times, so most events tie with others.
            TimeNs when = 2 + static_cast<TimeNs>((i * 7919) % 97);
            expected.emplace_back(when, i);
            sim.events().schedule(when, [&fired, i](TimeNs t) {
                fired.emplace_back(t, i);
            });
        }
    });
    sim.runAll();
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(kBurst));
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(sim.eventsRun(), static_cast<std::uint64_t>(kBurst) + 1);
    EXPECT_EQ(owner.use_count(), 1);
}

TEST(EventQueueDeath, RunOneOnEmptyPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.runOne(), "empty event queue");
}

TEST(Simulator, TimeAdvancesWithEvents)
{
    Simulator sim(1);
    std::vector<TimeNs> times;
    sim.after(100, [&](TimeNs t) { times.push_back(t); });
    sim.after(50, [&](TimeNs t) { times.push_back(t); });
    sim.runAll();
    EXPECT_EQ(times, (std::vector<TimeNs>{50, 100}));
    EXPECT_EQ(sim.now(), 100u);
    EXPECT_EQ(sim.eventsRun(), 2u);
}

TEST(Simulator, RunUntilStopsAtHorizon)
{
    Simulator sim(1);
    int fired = 0;
    sim.after(10, [&](TimeNs) { ++fired; });
    sim.after(1000, [&](TimeNs) { ++fired; });
    sim.runUntil(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.events().size(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenDrained)
{
    Simulator sim(1);
    sim.runUntil(500);
    EXPECT_EQ(sim.now(), 500u);
}

// Clock rules of runUntil: an event at the limit fires; with events
// left beyond the limit the clock stays at the last event fired; once
// the queue drains it jumps to the limit; it never moves backward, and
// a cancelled event never moves it.
TEST(Simulator, RunUntilClockSemantics)
{
    Simulator sim(1);
    std::vector<TimeNs> times;
    auto note = [&](TimeNs t) { times.push_back(t); };
    sim.after(10, note);
    sim.after(100, note);
    sim.after(1000, note);
    sim.runUntil(100);
    EXPECT_EQ(times, (std::vector<TimeNs>{10, 100}));
    EXPECT_EQ(sim.now(), 100u);
    sim.runUntil(500);
    EXPECT_EQ(sim.now(), 100u) << "events remain: clock stays put";
    sim.runUntil(2000);
    EXPECT_EQ(sim.now(), 2000u) << "drained: clock jumps to the limit";
    sim.runUntil(1500);
    EXPECT_EQ(sim.now(), 2000u) << "clock moved backward";

    EventId dead = sim.after(10, note);
    sim.after(50, note);
    sim.events().cancel(dead);
    sim.runUntil(2030);
    EXPECT_EQ(sim.now(), 2000u) << "a cancelled event moved the clock";
    EXPECT_EQ(sim.eventsRun(), 3u);
    sim.runUntil(2050);
    EXPECT_EQ(sim.now(), 2050u);
    EXPECT_EQ(sim.eventsRun(), 4u);

    // stop() ends the run at the stopping event, even with the limit
    // far ahead and more events due.
    sim.after(10, [&](TimeNs) { sim.stop(); });
    sim.after(20, note);
    sim.runUntil(10000);
    EXPECT_EQ(sim.now(), 2060u);
    sim.runUntil(10000);
    EXPECT_EQ(sim.now(), 10000u);
}

// runAll leaves the clock at the last event fired and never moves it
// on an empty queue.
TEST(Simulator, RunAllClockSemantics)
{
    Simulator sim(1);
    sim.runAll();
    EXPECT_EQ(sim.now(), 0u);
    EventId dead = sim.after(500, [](TimeNs) {});
    sim.after(70, [](TimeNs) {});
    sim.events().cancel(dead);
    sim.runAll();
    EXPECT_EQ(sim.now(), 70u);
    EXPECT_EQ(sim.eventsRun(), 1u);
    sim.runAll();
    EXPECT_EQ(sim.now(), 70u);
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator sim(1);
    int depth = 0;
    std::function<void(TimeNs)> chain = [&](TimeNs) {
        if (++depth < 5)
            sim.after(10, chain);
    };
    sim.after(10, chain);
    sim.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, EveryRepeatsUntilCancelled)
{
    Simulator sim(1);
    int ticks = 0;
    auto cancel = sim.every(10, [&](TimeNs) { ++ticks; });
    sim.runUntil(55);
    EXPECT_EQ(ticks, 5);
    cancel();
    sim.runUntil(200);
    EXPECT_EQ(ticks, 5);
}

TEST(Simulator, StopHaltsRun)
{
    Simulator sim(1);
    int fired = 0;
    sim.after(10, [&](TimeNs) {
        ++fired;
        sim.stop();
    });
    sim.after(20, [&](TimeNs) { ++fired; });
    sim.runAll();
    EXPECT_EQ(fired, 1);
    // A later run resumes the remaining events.
    sim.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(SimulatorDeath, SchedulingInThePastPanics)
{
    Simulator sim(1);
    sim.after(10, [](TimeNs) {});
    sim.runAll();
    EXPECT_DEATH(sim.at(5, [](TimeNs) {}), "past");
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto run = [](std::uint64_t seed) {
        Simulator sim(seed);
        std::uint64_t acc = 0;
        for (int i = 0; i < 100; ++i) {
            sim.after(sim.rng().below(1000) + 1,
                      [&acc, i](TimeNs t) { acc = acc * 31 + t + i; });
        }
        sim.runAll();
        return acc;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

} // namespace
} // namespace preempt::sim
