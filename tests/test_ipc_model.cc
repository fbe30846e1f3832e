/** @file Tests for the IPC mechanism catalogue and ping-pong model. */

#include <gtest/gtest.h>

#include "hw/ipc.hh"

namespace preempt::hw {
namespace {

TEST(IpcCatalogue, ContainsAllTableIvMechanisms)
{
    LatencyConfig cfg;
    auto all = allIpcMechanisms(cfg);
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0].name, "signal");
    EXPECT_EQ(all[4].name, "uintrFd");
    EXPECT_EQ(all[5].name, "uintrFd (blocked)");
    // Kernel mechanisms transit the kernel; UINTR does not.
    EXPECT_TRUE(all[0].viaKernel);
    EXPECT_FALSE(all[4].viaKernel);
}

TEST(IpcPingPong, StatsMatchCalibration)
{
    LatencyConfig cfg;
    auto uintr = ipcMechanism(IpcKind::UintrFd, cfg);
    IpcBenchResult r = runIpcPingPong(uintr, 200000, 1);
    // avg = floor + jitter mean (Table IV: 0.734 us), min >= floor.
    EXPECT_NEAR(r.avgUs, cfg.uintrRunning.expectedNs() / 1e3, 0.03);
    EXPECT_GE(r.minUs, cfg.uintrRunning.floorNs() / 1e3 - 1e-9);
    EXPECT_GT(r.rateMsgPerSec, 0.0);
}

TEST(IpcPingPong, UintrBeatsEveryKernelMechanism)
{
    LatencyConfig cfg;
    auto mechs = allIpcMechanisms(cfg);
    double uintr_avg = 0;
    for (const auto &m : mechs) {
        if (m.kind == IpcKind::UintrFd)
            uintr_avg = runIpcPingPong(m, 50000, 2).avgUs;
    }
    for (const auto &m : mechs) {
        if (!m.viaKernel)
            continue;
        double avg = runIpcPingPong(m, 50000, 2).avgUs;
        EXPECT_GT(avg, uintr_avg * 5) << m.name;
    }
}

TEST(IpcPingPong, DeterministicForSeed)
{
    LatencyConfig cfg;
    auto mech = ipcMechanism(IpcKind::Signal, cfg);
    auto a = runIpcPingPong(mech, 10000, 7);
    auto b = runIpcPingPong(mech, 10000, 7);
    EXPECT_DOUBLE_EQ(a.avgUs, b.avgUs);
    EXPECT_DOUBLE_EQ(a.stdUs, b.stdUs);
}

TEST(IpcPingPongDeath, ZeroMessagesFatal)
{
    LatencyConfig cfg;
    auto mech = ipcMechanism(IpcKind::Pipe, cfg);
    EXPECT_EXIT(runIpcPingPong(mech, 0, 1), testing::ExitedWithCode(1),
                "at least one");
}

} // namespace
} // namespace preempt::hw
