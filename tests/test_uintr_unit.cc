/** @file Tests for the UINTR architectural model. */

#include <gtest/gtest.h>

#include "hw/uintr.hh"
#include "sim/simulator.hh"

namespace preempt::hw {
namespace {

struct UintrFixture : testing::Test
{
    UintrFixture() : sim(1), unit(sim, cfg) {}

    sim::Simulator sim;
    LatencyConfig cfg;
    UintrUnit unit;
    int rx_ = -1;
};

TEST_F(UintrFixture, SetupFollowsNativeApi)
{
    int rx = unit.registerHandler([](TimeNs, std::uint64_t) {});
    int fd = unit.createFd(rx, 3);
    int uipi = unit.registerSender(fd);
    EXPECT_EQ(uipi, 0);
    EXPECT_EQ(unit.uittSize(), 1u);
}

TEST_F(UintrFixture, DeliveryToRunningReceiver)
{
    TimeNs delivered_at = 0;
    std::uint64_t vectors = 0;
    int rx = unit.registerHandler([&](TimeNs t, std::uint64_t v) {
        delivered_at = t;
        vectors = v;
    });
    int uipi = unit.registerSender(unit.createFd(rx, 5));

    TimeNs cost = unit.senduipi(uipi);
    EXPECT_EQ(cost, cfg.senduipiCost);
    sim.runAll();

    EXPECT_EQ(vectors, 1ULL << 5);
    EXPECT_GE(delivered_at, cfg.uintrRunning.floorNs());
    EXPECT_EQ(unit.stats().deliveredRunning, 1u);
    EXPECT_EQ(unit.pending(rx), 0u);
    // UIF cleared during the handler until uiret.
    EXPECT_FALSE(unit.uif(rx));
    unit.uiret(rx);
    EXPECT_TRUE(unit.uif(rx));
}

TEST_F(UintrFixture, MultipleVectorsCoalesceInPir)
{
    std::uint64_t vectors = 0;
    int deliveries = 0;
    int rx = unit.registerHandler([&](TimeNs, std::uint64_t v) {
        vectors |= v;
        ++deliveries;
    });
    // Suppress delivery while posting both vectors.
    unit.setUif(rx, false);
    int u1 = unit.registerSender(unit.createFd(rx, 1));
    int u2 = unit.registerSender(unit.createFd(rx, 9));
    unit.senduipi(u1);
    unit.senduipi(u2);
    sim.runAll();
    EXPECT_EQ(deliveries, 0);
    EXPECT_EQ(unit.pending(rx), (1ULL << 1) | (1ULL << 9));

    // Re-enabling UIF recognises both at once.
    unit.setUif(rx, true);
    sim.runAll();
    EXPECT_EQ(deliveries, 1);
    EXPECT_EQ(vectors, (1ULL << 1) | (1ULL << 9));
    EXPECT_GE(unit.stats().suppressed, 1u);
}

TEST_F(UintrFixture, BlockedReceiverWokenThroughKernel)
{
    bool woken = false;
    TimeNs delivered_at = 0;
    int rx = unit.registerHandler(
        [&](TimeNs t, std::uint64_t) { delivered_at = t; },
        [&](TimeNs) { woken = true; });
    int uipi = unit.registerSender(unit.createFd(rx, 0));

    unit.setBlocked(rx, true);
    EXPECT_TRUE(unit.blocked(rx));
    unit.senduipi(uipi);
    sim.runAll();

    EXPECT_TRUE(woken);
    EXPECT_TRUE(unit.running(rx));
    EXPECT_EQ(unit.stats().deliveredBlocked, 1u);
    // The blocked path costs more than the running path's floor.
    EXPECT_GE(delivered_at, cfg.uintrBlocked.floorNs());
}

TEST_F(UintrFixture, DescheduledReceiverKeepsPending)
{
    int deliveries = 0;
    int rx = unit.registerHandler(
        [&](TimeNs, std::uint64_t) { ++deliveries; });
    int uipi = unit.registerSender(unit.createFd(rx, 2));

    unit.setRunning(rx, false);
    unit.senduipi(uipi);
    sim.runAll();
    EXPECT_EQ(deliveries, 0);
    EXPECT_EQ(unit.pending(rx), 1ULL << 2);

    unit.setRunning(rx, true);
    sim.runAll();
    EXPECT_EQ(deliveries, 1);
}

TEST_F(UintrFixture, NotificationInFlightWhenEligibilityLost)
{
    int deliveries = 0;
    int rx = unit.registerHandler(
        [&](TimeNs, std::uint64_t) { ++deliveries; });
    int uipi = unit.registerSender(unit.createFd(rx, 2));

    unit.senduipi(uipi);
    // Deschedule while the notification is in flight.
    unit.setRunning(rx, false);
    sim.runAll();
    EXPECT_EQ(deliveries, 0);
    EXPECT_EQ(unit.stats().spurious, 1u);
    EXPECT_EQ(unit.pending(rx), 1ULL << 2);
}

TEST_F(UintrFixture, RepeatedSendsWhileOutstandingCoalesce)
{
    int deliveries = 0;
    std::uint64_t last = 0;
    int rx = unit.registerHandler([&](TimeNs, std::uint64_t v) {
        ++deliveries;
        last = v;
    });
    int uipi = unit.registerSender(unit.createFd(rx, 4));
    unit.senduipi(uipi);
    unit.senduipi(uipi);
    unit.senduipi(uipi);
    sim.runAll();
    // One delivery; the PIR bit coalesces duplicates.
    EXPECT_EQ(deliveries, 1);
    EXPECT_EQ(last, 1ULL << 4);
    EXPECT_EQ(unit.stats().sends, 3u);
}

TEST_F(UintrFixture, UnregisterDropsInFlight)
{
    int deliveries = 0;
    int rx = unit.registerHandler(
        [&](TimeNs, std::uint64_t) { ++deliveries; });
    int uipi = unit.registerSender(unit.createFd(rx, 0));
    unit.senduipi(uipi);
    unit.unregisterHandler(rx);
    sim.runAll();
    EXPECT_EQ(deliveries, 0);
    // Sends to a dead receiver are dropped quietly.
    unit.senduipi(uipi);
    sim.runAll();
    EXPECT_EQ(deliveries, 0);
}

TEST_F(UintrFixture, VectorRangeEnforced)
{
    int rx = unit.registerHandler([](TimeNs, std::uint64_t) {});
    EXPECT_EXIT(unit.createFd(rx, 64), testing::ExitedWithCode(1),
                "vector");
    EXPECT_EXIT(unit.createFd(rx, -1), testing::ExitedWithCode(1),
                "vector");
}

TEST_F(UintrFixture, InvalidFdIsFatal)
{
    EXPECT_EXIT(unit.registerSender(99), testing::ExitedWithCode(1),
                "invalid uintr fd");
}

TEST_F(UintrFixture, HandlerRunsWithUifClearUntilUiret)
{
    int rx = unit.registerHandler([&](TimeNs, std::uint64_t) {
        // During delivery UIF must be clear.
        EXPECT_FALSE(unit.uif(rx_));
    });
    rx_ = rx;
    int uipi = unit.registerSender(unit.createFd(rx, 0));
    unit.senduipi(uipi);
    sim.runAll();

    // A vector posted while the handler is "running" stays pending
    // until uiret.
    int deliveries_before = static_cast<int>(
        unit.stats().deliveredRunning);
    unit.senduipi(uipi);
    sim.runAll();
    EXPECT_EQ(static_cast<int>(unit.stats().deliveredRunning),
              deliveries_before);
    unit.uiret(rx);
    sim.runAll();
    EXPECT_EQ(static_cast<int>(unit.stats().deliveredRunning),
              deliveries_before + 1);
}

TEST_F(UintrFixture, BlockDuringInFlightNotificationStillWakes)
{
    // Regression: a send while running schedules a running-path
    // notification (ON set); if the receiver blocks before it lands,
    // the setBlocked-time notify sees ON and bails, and the spurious
    // in-flight event used to strand the PIR with nobody left to wake
    // the sleeper.
    int deliveries = 0;
    bool woken = false;
    int rx = unit.registerHandler(
        [&](TimeNs, std::uint64_t) { ++deliveries; },
        [&](TimeNs) { woken = true; });
    int uipi = unit.registerSender(unit.createFd(rx, 1));

    unit.senduipi(uipi);
    unit.setBlocked(rx, true); // ON still set: notify is suppressed
    sim.runAll();

    EXPECT_GE(unit.stats().spurious, 1u);
    EXPECT_TRUE(woken);
    EXPECT_EQ(deliveries, 1);
    EXPECT_EQ(unit.pending(rx), 0u);
    EXPECT_FALSE(unit.blocked(rx));
}

TEST_F(UintrFixture, BlockedWithUifClearWakesButDefersDelivery)
{
    // The double-ineligible corner: blocked inside a CLUI critical
    // section. The kernel wake must resume the thread without entering
    // the handler; STUI then recognises the parked vector.
    int deliveries = 0;
    bool woken = false;
    int rx = unit.registerHandler(
        [&](TimeNs, std::uint64_t) { ++deliveries; },
        [&](TimeNs) { woken = true; });
    int uipi = unit.registerSender(unit.createFd(rx, 3));

    unit.setUif(rx, false);
    unit.setBlocked(rx, true);
    unit.senduipi(uipi);
    sim.runAll();

    EXPECT_TRUE(woken);
    EXPECT_TRUE(unit.running(rx));
    EXPECT_EQ(deliveries, 0) << "handler entered with UIF clear";
    EXPECT_EQ(unit.pending(rx), 1ULL << 3);

    unit.setUif(rx, true);
    sim.runAll();
    EXPECT_EQ(deliveries, 1);
    EXPECT_EQ(unit.pending(rx), 0u);
}

/**
 * Exhaustive (running, uif, blocked) enumeration: from every reachable
 * combination, a send must end in exactly one delivery once the
 * receiver becomes eligible — no state may strand the PIR.
 */
class UintrStateMatrix : public testing::TestWithParam<int>
{
};

TEST_P(UintrStateMatrix, EveryTransitionComboDeliversExactlyOnce)
{
    int mask = GetParam();
    bool want_running = mask & 1;
    bool want_uif = mask & 2;
    bool want_blocked = mask & 4;

    sim::Simulator sim(1);
    LatencyConfig cfg;
    UintrUnit unit(sim, cfg);
    int deliveries = 0;
    int rx = unit.registerHandler(
        [&](TimeNs, std::uint64_t) { ++deliveries; });
    int uipi = unit.registerSender(unit.createFd(rx, 7));

    // Drive the receiver into the combo (the model normalises the
    // unreachable blocked && running pair: blocked forces !running).
    if (!want_uif)
        unit.setUif(rx, false);
    if (want_blocked)
        unit.setBlocked(rx, true);
    else if (!want_running)
        unit.setRunning(rx, false);
    if (want_blocked) {
        EXPECT_FALSE(unit.running(rx));
    }

    unit.senduipi(uipi);
    sim.runAll();

    bool immediate = want_blocked ? want_uif : (want_running && want_uif);
    EXPECT_EQ(deliveries, immediate ? 1 : 0)
        << "running=" << want_running << " uif=" << want_uif
        << " blocked=" << want_blocked;
    if (!immediate) {
        EXPECT_EQ(unit.pending(rx), 1ULL << 7);
    }

    // Re-enable eligibility one transition at a time; each transition
    // must re-check the PIR.
    if (unit.blocked(rx))
        unit.setBlocked(rx, false);
    if (!unit.running(rx))
        unit.setRunning(rx, true);
    sim.runAll();
    if (!unit.uif(rx) && deliveries == 0)
        unit.setUif(rx, true);
    sim.runAll();

    EXPECT_EQ(deliveries, 1)
        << "missed wakeup for running=" << want_running
        << " uif=" << want_uif << " blocked=" << want_blocked;
    EXPECT_EQ(unit.pending(rx), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, UintrStateMatrix, testing::Range(0, 8));

} // namespace
} // namespace preempt::hw
