/**
 * @file
 * StealDeque: deterministic single-thread semantics plus an
 * owner-vs-thieves conservation stress (no element lost, none taken
 * twice). Owner and thieves alike consume with steal().
 */

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "preemptible/steal_deque.hh"

using preempt::runtime::StealDeque;
using preempt::runtime::StealResult;

namespace {

TEST(StealDeque, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(StealDeque<std::uint64_t>(1).capacity(), 1u);
    EXPECT_EQ(StealDeque<std::uint64_t>(2).capacity(), 2u);
    EXPECT_EQ(StealDeque<std::uint64_t>(3).capacity(), 4u);
    EXPECT_EQ(StealDeque<std::uint64_t>(100).capacity(), 128u);
}

TEST(StealDeque, ThiefStealsFifo)
{
    StealDeque<std::uint64_t> dq(8);
    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(dq.push(i));
    std::uint64_t v = 0;
    for (std::uint64_t i = 0; i < 5; ++i) {
        ASSERT_EQ(dq.steal(v), StealResult::Ok);
        EXPECT_EQ(v, i);
    }
    EXPECT_EQ(dq.steal(v), StealResult::Empty);
}

TEST(StealDeque, PushFailsWhenFullAndRecoversAfterConsuming)
{
    StealDeque<std::uint64_t> dq(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(dq.push(i));
    EXPECT_FALSE(dq.push(99));
    std::uint64_t v = 0;
    ASSERT_EQ(dq.steal(v), StealResult::Ok);
    EXPECT_TRUE(dq.push(99)); // slot freed at the top, bottom wraps
    EXPECT_EQ(dq.size(), 4u);
}

TEST(StealDeque, WrapAroundPreservesOrder)
{
    StealDeque<std::uint64_t> dq(4);
    std::uint64_t v = 0;
    // Keep three elements queued and cycle far past the buffer size so
    // indices wrap many times. The owner consumes with steal(), as the
    // runtime does, and always gets the oldest.
    for (std::uint64_t i = 0; i < 64; ++i) {
        ASSERT_TRUE(dq.push(i));
        if (i >= 2) {
            ASSERT_EQ(dq.steal(v), StealResult::Ok);
            EXPECT_EQ(v, i - 2);
        }
    }
    for (std::uint64_t i = 62; i < 64; ++i) {
        ASSERT_EQ(dq.steal(v), StealResult::Ok);
        EXPECT_EQ(v, i);
    }
    EXPECT_TRUE(dq.empty());
}

TEST(StealDeque, BatchTakesOldestFirstAndStopsAtEmpty)
{
    StealDeque<std::uint64_t> dq(16);
    for (std::uint64_t i = 0; i < 6; ++i)
        ASSERT_TRUE(dq.push(i));
    std::uint64_t out[8] = {};
    StealResult last = StealResult::Ok;
    EXPECT_EQ(dq.stealBatch(out, 4, &last), 4u);
    EXPECT_EQ(last, StealResult::Ok);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], i);
    EXPECT_EQ(dq.stealBatch(out, 8, &last), 2u);
    EXPECT_EQ(last, StealResult::Empty);
    EXPECT_EQ(out[0], 4u);
    EXPECT_EQ(out[1], 5u);
    EXPECT_EQ(dq.stealBatch(out, 8, &last), 0u);
    EXPECT_EQ(last, StealResult::Empty);
}

/**
 * Conservation under contention: one owner pushing and consuming its
 * own oldest elements with steal() (as the runtime's dispatch does),
 * many thieves stealing. Every pushed value must be consumed exactly
 * once across all parties.
 */
TEST(StealDequeStress, OwnerAndThievesConserveElements)
{
    constexpr std::uint64_t kN = 200000;
    constexpr int kThieves = 3;
    StealDeque<std::uint64_t> dq(1024);

    std::vector<std::atomic<std::uint32_t>> seen(kN);
    std::atomic<bool> ownerDone{false};

    auto consume = [&](std::uint64_t v) {
        ASSERT_LT(v, kN);
        seen[v].fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> thieves;
    for (int t = 0; t < kThieves; ++t) {
        thieves.emplace_back([&] {
            std::uint64_t v = 0;
            for (;;) {
                StealResult r = dq.steal(v);
                if (r == StealResult::Ok) {
                    consume(v);
                } else if (ownerDone.load(std::memory_order_acquire) &&
                           r == StealResult::Empty) {
                    // One owner, no more pushes: Empty is final.
                    break;
                }
            }
        });
    }

    std::uint64_t v = 0;
    for (std::uint64_t i = 0; i < kN; ++i) {
        while (!dq.push(i)) {
            if (dq.steal(v) == StealResult::Ok)
                consume(v); // full: take our own oldest
        }
        if ((i & 7) == 0 && dq.steal(v) == StealResult::Ok)
            consume(v); // interleave owner takes with pushes
    }
    StealResult r;
    while ((r = dq.steal(v)) != StealResult::Empty) {
        if (r == StealResult::Ok)
            consume(v);
    }
    ownerDone.store(true, std::memory_order_release);
    for (auto &th : thieves)
        th.join();

    for (std::uint64_t i = 0; i < kN; ++i)
        ASSERT_EQ(seen[i].load(), 1u) << "element " << i;
    EXPECT_TRUE(dq.empty());
}

} // namespace
