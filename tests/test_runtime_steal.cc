/**
 * @file
 * Work stealing and sharded per-task deadlines in PreemptibleRuntime:
 * rebalancing of skewed submissions, task conservation under steals
 * (none lost, none run twice), exactly-once deadline firing across
 * migrations, the expired-drop policy, and oldest-first dispatch.
 *
 * StealStress.* doubles as the multi-worker stress target the
 * sanitizer CI jobs run explicitly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "preemptible/hosttime.hh"
#include "preemptible/runtime.hh"

namespace preempt::runtime {
namespace {

PreemptibleRuntime::Options
stealOptions(int workers = 4)
{
    PreemptibleRuntime::Options opt;
    opt.nWorkers = workers;
    opt.quantum = msToNs(2);
    opt.timer.idleSleep = usToNs(200);
    opt.idleNap = usToNs(50);
    opt.seed = 0xdeadbeef;
    return opt;
}

void
spinFor(TimeNs dur)
{
    TimeNs end = hostNowNs() + dur;
    while (hostNowNs() < end) {
    }
}

TEST(RuntimeSteal, SkewedSubmitIsRebalancedByStealing)
{
    // Everything lands on worker 0's inbox; the other workers have
    // nothing and must steal to contribute.
    PreemptibleRuntime rt(stealOptions(4));
    std::atomic<int> done{0};
    constexpr int kTasks = 256;
    for (int i = 0; i < kTasks; ++i) {
        ASSERT_TRUE(rt.submitTo(0, [&] {
            spinFor(usToNs(100));
            done.fetch_add(1);
        }));
    }
    rt.quiesce();
    EXPECT_EQ(done.load(), kTasks);
    auto s = rt.stats();
    EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kTasks));
    EXPECT_GT(s.stealAttempts, 0u);
    EXPECT_GT(s.stealHits, 0u) << "idle workers never stole from the "
                                  "overloaded one";
    // Every steal migrates; long-queue adoptions (an OS-descheduled
    // worker overrunning its quantum) can add a few more.
    EXPECT_GE(s.migrations, s.stealHits);
    rt.shutdown();
}

TEST(RuntimeSteal, NoTaskLostOrRunTwiceUnderSteals)
{
    PreemptibleRuntime rt(stealOptions(4));
    constexpr int kTasks = 2000;
    std::vector<std::atomic<std::uint32_t>> runs(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        while (!rt.submitTo(0, [&runs, i] {
            runs[static_cast<std::size_t>(i)].fetch_add(1);
        })) {
            std::this_thread::yield(); // inbox backpressure
        }
    }
    rt.quiesce();
    for (int i = 0; i < kTasks; ++i)
        ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), 1u)
            << "task " << i;
    auto s = rt.stats();
    EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kTasks));
    rt.shutdown();
}

TEST(RuntimeSteal, StealingOffRestoresRoundRobinBaseline)
{
    auto opt = stealOptions(4);
    opt.stealing = false;
    PreemptibleRuntime rt(opt);
    std::atomic<int> done{0};
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(rt.submitTo(0, [&] { done.fetch_add(1); }));
    rt.quiesce();
    EXPECT_EQ(done.load(), 64);
    auto s = rt.stats();
    EXPECT_EQ(s.stealAttempts, 0u);
    EXPECT_EQ(s.stealHits, 0u);
    rt.shutdown();
}

TEST(RuntimeSteal, DeterministicVictimStreams)
{
    // Same seed, same per-worker stream: two runtimes configured alike
    // are exercising identical victim-selection sequences. Observable
    // cheaply: the Rng is seeded per worker from Options::seed, so two
    // runs share it; here we only assert the configuration survives.
    auto opt = stealOptions(4);
    opt.seed = 1234;
    PreemptibleRuntime rt(opt);
    std::atomic<int> done{0};
    for (int i = 0; i < 128; ++i)
        ASSERT_TRUE(rt.submitTo(0, [&] {
            spinFor(usToNs(50));
            done.fetch_add(1);
        }));
    rt.quiesce();
    EXPECT_EQ(done.load(), 128);
    rt.shutdown();
}

TEST(RuntimeDeadline, FiresExactlyOnceEvenWhenTasksMigrate)
{
    // Tasks outlive their deadline by design, so every deadline fires;
    // steals migrate tasks (and their pending deadlines) between
    // shards. Exactly-once: fires counted == tasks, no double fire
    // from a migrated-but-not-cancelled wheel entry.
    PreemptibleRuntime rt(stealOptions(4));
    constexpr int kTasks = 16;
    std::atomic<int> done{0};
    for (int i = 0; i < kTasks; ++i) {
        ASSERT_TRUE(rt.submitTo(0, [&] {
            spinFor(msToNs(3));
            done.fetch_add(1);
        }, 0, usToNs(300)));
    }
    rt.quiesce();
    EXPECT_EQ(done.load(), kTasks);
    auto s = rt.stats();
    // At-most-once: a deadline that migrated with its task must never
    // fire from both shards. (Exactly kTasks is not guaranteed on a
    // starved 1-CPU host: a late timer scan can lose the race with
    // task completion, which cancels the deadline.)
    EXPECT_GT(s.deadlineFires, 0u);
    EXPECT_LE(s.deadlineFires, static_cast<std::uint64_t>(kTasks));
    // The timer thread folds shard fires into wheelFiresTotal only
    // after the advance pass returns, so give its counter a moment to
    // catch up with the runtime-side count.
    TimeNs patience = hostNowNs() + secToNs(2);
    while (rt.timer().wheelFiresTotal() < s.deadlineFires &&
           hostNowNs() < patience) {
        timespec ts{0, 1000000};
        ::nanosleep(&ts, nullptr);
    }
    EXPECT_EQ(rt.timer().wheelFiresTotal(), s.deadlineFires);
    EXPECT_EQ(s.expiredDrops, 0u); // dropExpired off: tasks still ran
    rt.shutdown();
    // All shards drained: nothing left pending after quiesce.
    for (int w = 0; w < rt.nWorkers(); ++w)
        EXPECT_EQ(rt.wheelShard(w).depth(), 0u);
}

TEST(RuntimeDeadline, CompletedBeforeDeadlineNeverFires)
{
    PreemptibleRuntime rt(stealOptions(2));
    constexpr int kTasks = 32;
    std::atomic<int> done{0};
    for (int i = 0; i < kTasks; ++i) {
        // Trivial body, generous deadline: completion cancels it.
        ASSERT_TRUE(rt.submitTo(i % 2, [&] { done.fetch_add(1); }, 0,
                                secToNs(30)));
    }
    rt.quiesce();
    EXPECT_EQ(done.load(), kTasks);
    auto s = rt.stats();
    EXPECT_EQ(s.deadlineFires, 0u);
    for (int w = 0; w < rt.nWorkers(); ++w)
        EXPECT_EQ(rt.wheelShard(w).depth(), 0u)
            << "cancelled deadlines must leave the shard";
    rt.shutdown();
}

TEST(RuntimeDeadline, DropExpiredDiscardsHopelessTasks)
{
    auto opt = stealOptions(2);
    opt.dropExpired = true;
    PreemptibleRuntime rt(opt);
    std::atomic<int> ran{0};

    // Plug both workers with long spinners, then queue short tasks
    // with deadlines that expire while they wait.
    std::atomic<bool> release{false};
    for (int w = 0; w < 2; ++w) {
        ASSERT_TRUE(rt.submitTo(w, [&] {
            while (!release.load())
                spinFor(usToNs(50));
        }, 1));
    }
    constexpr int kShort = 16;
    for (int i = 0; i < kShort; ++i) {
        ASSERT_TRUE(rt.submitTo(i % 2, [&] { ran.fetch_add(1); }, 0,
                                usToNs(200)));
    }
    // Let the deadlines expire before unblocking the workers.
    spinFor(msToNs(20));
    release.store(true);
    rt.quiesce();
    auto s = rt.stats();
    EXPECT_GT(s.expiredDrops, 0u) << "expired queued tasks must be "
                                     "dropped, not launched";
    EXPECT_EQ(s.expiredDrops + s.completed, s.submitted);
    EXPECT_EQ(ran.load() + static_cast<int>(s.expiredDrops),
              kShort);
    rt.shutdown();
}

/** Fresh work runs oldest first (FCFS, as in the simulator): tasks
 *  queued behind a plugged worker start in submit order, not in the
 *  reverse order of a LIFO drain. */
TEST(RuntimeDispatch, QueuedTasksStartInSubmitOrder)
{
    PreemptibleRuntime rt(stealOptions(1));
    std::atomic<bool> started{false}, release{false};
    ASSERT_TRUE(rt.submitTo(0, [&] {
        started.store(true);
        while (!release.load())
            spinFor(usToNs(50));
    }, 1));
    while (!started.load())
        std::this_thread::yield();

    constexpr int kTasks = 32;
    std::vector<int> order; // appended only by the single worker
    for (int i = 0; i < kTasks; ++i)
        ASSERT_TRUE(rt.submitTo(0, [&order, i] { order.push_back(i); }));
    release.store(true);
    rt.quiesce();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i)
            << "task " << i << " did not start in submit order";
    rt.shutdown();
}

/**
 * The multi-worker churn stress the sanitizer CI jobs run: concurrent
 * submitters, skewed placement, deadlines, preemption-length tasks.
 * Conservation is the assertion; TSan/ASan make the data-race and
 * lifetime checks.
 */
TEST(StealStress, MultiWorkerChurn)
{
    auto opt = stealOptions(4);
    opt.queueCapacity = 256;
    PreemptibleRuntime rt(opt);
    constexpr int kSubmitters = 3;
    constexpr int kPerThread = 400;
    std::atomic<int> done{0};
    std::atomic<std::uint64_t> accepted{0};

    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // Everything targets worker 0 to force stealing; every
                // third task carries a deadline, every fifth is long
                // enough to be preempted onto the long queue.
                TimeNs dl = (i % 3 == 0) ? usToNs(500) : 0;
                TimeNs work =
                    (i % 5 == 0) ? msToNs(3) : usToNs(20 + 10 * t);
                if (rt.submitTo(0, [&, work] {
                        spinFor(work);
                        done.fetch_add(1);
                    }, i % 2, dl)) {
                    accepted.fetch_add(1);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto &th : submitters)
        th.join();
    rt.quiesce();
    auto s = rt.stats();
    EXPECT_EQ(static_cast<std::uint64_t>(done.load()), accepted.load());
    EXPECT_EQ(s.completed, accepted.load());
    EXPECT_EQ(s.submitted, accepted.load());
    rt.shutdown();
    for (int w = 0; w < rt.nWorkers(); ++w)
        EXPECT_EQ(rt.wheelShard(w).depth(), 0u);
}

} // namespace
} // namespace preempt::runtime
