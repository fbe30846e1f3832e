/** @file Tests for the kernel cost models, jitter, and the machine. */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "hw/jitter.hh"
#include "hw/kernel.hh"
#include "hw/machine.hh"
#include "sim/simulator.hh"

namespace preempt::hw {
namespace {

TEST(Jitter, SamplesRespectFloor)
{
    Rng rng(1);
    JitterSpec spec{1000, 500, 300};
    for (int i = 0; i < 10000; ++i)
        ASSERT_GE(spec.sample(rng), 1000u);
}

TEST(Jitter, MomentsMatchSpec)
{
    Rng rng(2);
    JitterSpec spec{2000, 1500, 700};
    double sum = 0, sumsq = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        double v = static_cast<double>(spec.sample(rng));
        sum += v;
        sumsq += v * v;
    }
    double mean = sum / n;
    double var = sumsq / n - mean * mean;
    EXPECT_NEAR(mean, spec.expectedNs(), spec.expectedNs() * 0.02);
    EXPECT_NEAR(std::sqrt(var), 700.0, 70.0);
}

TEST(Jitter, ZeroMeanIsDeterministic)
{
    Rng rng(3);
    JitterSpec spec{123, 0, 0};
    EXPECT_EQ(spec.sample(rng), 123u);
}

// JitterSpec::sample as it was before its log-normal moments were
// precomputed at construction: everything recomputed on every draw.
TimeNs
referenceSample(double floorNs, double meanNs, double stdNs, Rng &rng)
{
    if (meanNs <= 0)
        return static_cast<TimeNs>(floorNs);
    double m = meanNs;
    double s = stdNs > 0 ? stdNs : meanNs * 0.25;
    double sigma2 = std::log(1.0 + (s * s) / (m * m));
    double mu = std::log(m) - 0.5 * sigma2;
    double sigma = std::sqrt(sigma2);
    double u1 = 1.0 - rng.uniform();
    double u2 = rng.uniform();
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    double v = floorNs + std::exp(mu + sigma * z);
    return v <= 0 ? 0 : static_cast<TimeNs>(v + 0.5);
}

TEST(Jitter, PrecomputedMomentsMatchPerDrawFormula)
{
    LatencyConfig cfg = LatencyConfig::paperCalibrated();
    const std::vector<std::pair<const char *, JitterSpec>> specs = {
        {"uintrRunning", cfg.uintrRunning},
        {"uintrBlocked", cfg.uintrBlocked},
        {"signalDelivery", cfg.signalDelivery},
        {"mqDelivery", cfg.mqDelivery},
        {"pipeDelivery", cfg.pipeDelivery},
        {"eventfdDelivery", cfg.eventfdDelivery},
        {"kernelTimerJitter", cfg.kernelTimerJitter},
        {"postedIpiDelivery", cfg.postedIpiDelivery},
        {"stdZero", JitterSpec{1000, 500, 0}},
        {"meanZero", JitterSpec{123, 0, 0}},
        {"meanNegative", JitterSpec{250, -40, 10}},
        {"default", JitterSpec{}},
    };
    for (const auto &[name, spec] : specs) {
        Rng a(11), b(11);
        for (int i = 0; i < 10000; ++i) {
            ASSERT_EQ(spec.sample(a),
                      referenceSample(spec.floorNs(), spec.meanNs(),
                                      spec.stdNs(), b))
                << name << " draw " << i;
        }
        EXPECT_EQ(a.uniform(), b.uniform()) << name << ": streams diverged";
    }
}

TEST(SignalPath, DeliversThroughKernelPath)
{
    sim::Simulator sim(1);
    LatencyConfig cfg;
    SignalPath path(sim, cfg);
    TimeNs entry = 0;
    path.sendSignal([&](TimeNs t, TimeNs) { entry = t; });
    sim.runAll();
    EXPECT_GE(entry, cfg.signalDelivery.floorNs());
    EXPECT_EQ(path.delivered(), 1u);
}

TEST(SignalPath, BurstCausesQueueing)
{
    sim::Simulator sim(1);
    LatencyConfig cfg;
    SignalPath path(sim, cfg);
    std::vector<TimeNs> delays;
    for (int i = 0; i < 16; ++i)
        path.sendSignal([&](TimeNs, TimeNs d) { delays.push_back(d); });
    sim.runAll();
    ASSERT_EQ(delays.size(), 16u);
    // Later signals in the burst queue behind the kernel lock.
    EXPECT_GT(path.meanQueueingNs(), 0.0);
    TimeNs max_delay = *std::max_element(delays.begin(), delays.end());
    TimeNs min_delay = *std::min_element(delays.begin(), delays.end());
    EXPECT_GE(max_delay, min_delay + 10 * cfg.signalLockHold);
}

TEST(KernelTimer, ClampsToGranularityFloor)
{
    sim::Simulator sim(1);
    LatencyConfig cfg;
    SignalPath path(sim, cfg);
    KernelTimer timer(sim, cfg, path);
    timer.arm(usToNs(20), false, [](TimeNs, TimeNs) {});
    EXPECT_EQ(timer.effectiveInterval(), cfg.kernelTimerFloor);
}

TEST(KernelTimer, PeriodicFiresRepeatedly)
{
    sim::Simulator sim(1);
    LatencyConfig cfg;
    cfg.kernelTimerFloor = usToNs(100);
    SignalPath path(sim, cfg);
    KernelTimer timer(sim, cfg, path);
    int fires = 0;
    timer.arm(usToNs(100), true, [&](TimeNs, TimeNs) { ++fires; });
    sim.runUntil(msToNs(2));
    // ~20 expiries over 2 ms at a 100 us period (with jitter slack).
    EXPECT_GE(fires, 12);
    EXPECT_LE(fires, 22);
}

TEST(KernelTimer, DisarmStopsExpiries)
{
    sim::Simulator sim(1);
    LatencyConfig cfg;
    cfg.kernelTimerFloor = usToNs(100);
    SignalPath path(sim, cfg);
    KernelTimer timer(sim, cfg, path);
    int fires = 0;
    timer.arm(usToNs(100), true, [&](TimeNs, TimeNs) { ++fires; });
    sim.runUntil(usToNs(450));
    timer.disarm();
    int at_disarm = fires;
    sim.runUntil(msToNs(5));
    EXPECT_EQ(fires, at_disarm);
}

TEST(KernelTimer, OneShotFiresOnce)
{
    sim::Simulator sim(1);
    LatencyConfig cfg;
    cfg.kernelTimerFloor = usToNs(100);
    SignalPath path(sim, cfg);
    KernelTimer timer(sim, cfg, path);
    int fires = 0;
    timer.arm(usToNs(100), false, [&](TimeNs, TimeNs) { ++fires; });
    sim.runUntil(msToNs(5));
    EXPECT_EQ(fires, 1);
}

TEST(Machine, UtilizationAndRoles)
{
    sim::Simulator sim(1);
    LatencyConfig cfg;
    Machine m(sim, cfg, 3);
    m.setRole(0, CoreRole::Dispatcher);
    m.setRole(1, CoreRole::Worker);
    m.setRole(2, CoreRole::Timer);
    EXPECT_EQ(m.role(2), CoreRole::Timer);

    sim.after(1000, [](TimeNs) {});
    sim.runAll();
    m.addBusy(1, 500);
    EXPECT_DOUBLE_EQ(m.utilization(1), 0.5);
    EXPECT_EQ(m.totalBusy(), 500u);
}

TEST(Machine, PowerModelChargesTimerCoreFlat)
{
    sim::Simulator sim(1);
    LatencyConfig cfg;
    Machine m(sim, cfg, 3);
    m.setRole(0, CoreRole::Timer);
    m.setRole(1, CoreRole::Timer);
    m.setRole(2, CoreRole::Worker);
    sim.after(1000, [](TimeNs) {});
    sim.runAll();
    m.addBusy(2, 1000); // fully busy worker
    double watts = m.powerWatts();
    // First timer core at the UMWAIT wattage, second nearly free,
    // worker at full utilization.
    EXPECT_NEAR(watts,
                cfg.timerCoreWatts + cfg.extraTimerCoreWatts +
                    cfg.workerCoreWatts,
                1e-9);
}

TEST(MachineDeath, InvalidCorePanics)
{
    sim::Simulator sim(1);
    LatencyConfig cfg;
    Machine m(sim, cfg, 2);
    EXPECT_DEATH(m.addBusy(5, 1), "invalid core");
}

} // namespace
} // namespace preempt::hw
