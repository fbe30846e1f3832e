/**
 * @file
 * Tests for the oracle reference schedulers, the work-stealing and
 * SLO-cancellation extensions, the posted-IPI model, and
 * queueing-theory sanity checks of the whole simulation substrate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/oracle_sim.hh"
#include "hw/posted_ipi.hh"
#include "runtime_sim/libpreemptible_sim.hh"
#include "workload/generator.hh"

namespace preempt {
namespace {

using baselines::ProcessorSharingSim;
using baselines::SrptSim;

template <typename Server>
const workload::RunMetrics &
drive(Server &server, sim::Simulator &sim, const std::string &wl,
      double rps, TimeNs duration)
{
    static std::unique_ptr<workload::OpenLoopGenerator> gen;
    gen = std::make_unique<workload::OpenLoopGenerator>(
        sim,
        workload::WorkloadSpec{workload::makeServiceLaw(wl, duration),
                               workload::RateLaw::constant(rps), duration},
        [&server](workload::Request &r) { server.onArrival(r); });
    gen->start();
    sim.runUntil(duration + secToNs(5));
    return server.metrics();
}

TEST(OraclePs, ConservesAndIsOverheadFree)
{
    sim::Simulator sim(1);
    ProcessorSharingSim ps(sim, 4);
    const auto &m = drive(ps, sim, "A1", 400e3, msToNs(50));
    EXPECT_GT(m.arrived(), 1000u);
    EXPECT_EQ(m.arrived(), m.completed());
    EXPECT_EQ(ps.inFlight(), 0u);
}

TEST(OraclePs, SingleJobRunsAtFullRate)
{
    sim::Simulator sim(1);
    ProcessorSharingSim ps(sim, 2);
    workload::Request req;
    req.id = 1;
    req.arrival = 0;
    req.service = usToNs(100);
    req.remaining = req.service;
    ps.onArrival(req);
    sim.runAll();
    ASSERT_TRUE(req.done());
    EXPECT_NEAR(static_cast<double>(req.latency()),
                static_cast<double>(usToNs(100)),
                static_cast<double>(usToNs(1)));
}

TEST(OraclePs, TwoJobsOnOneCoreShareCapacity)
{
    sim::Simulator sim(1);
    ProcessorSharingSim ps(sim, 1);
    workload::Request a, b;
    a.id = 1;
    a.service = a.remaining = usToNs(100);
    b.id = 2;
    b.service = b.remaining = usToNs(100);
    ps.onArrival(a);
    ps.onArrival(b);
    sim.runAll();
    // Equal jobs sharing one core both finish at ~200 us.
    EXPECT_NEAR(static_cast<double>(a.latency()),
                static_cast<double>(usToNs(200)),
                static_cast<double>(usToNs(4)));
    EXPECT_NEAR(static_cast<double>(b.latency()),
                static_cast<double>(usToNs(200)),
                static_cast<double>(usToNs(4)));
}

TEST(OracleSrpt, ShortJobPreemptsLong)
{
    sim::Simulator sim(1);
    SrptSim srpt(sim, 1);
    workload::Request long_job, short_job;
    long_job.id = 1;
    long_job.service = long_job.remaining = usToNs(500);
    srpt.onArrival(long_job);
    // The short job arrives mid-run and must jump ahead.
    sim.after(usToNs(50), [&](TimeNs) {
        short_job.id = 2;
        short_job.arrival = sim.now();
        short_job.service = short_job.remaining = usToNs(10);
        srpt.onArrival(short_job);
    });
    sim.runAll();
    ASSERT_TRUE(long_job.done());
    ASSERT_TRUE(short_job.done());
    EXPECT_LT(short_job.completion, long_job.completion);
    EXPECT_NEAR(static_cast<double>(short_job.latency()),
                static_cast<double>(usToNs(10)),
                static_cast<double>(usToNs(2)));
}

TEST(OracleSrpt, LowerBoundsLibPreemptibleMeanLatency)
{
    TimeNs duration = msToNs(60);
    double rps = 600e3;

    sim::Simulator s1(7);
    SrptSim srpt(s1, 4);
    const auto &oracle = drive(srpt, s1, "A1", rps, duration);
    double oracle_mean = oracle.lcLatency().mean();

    sim::Simulator s2(7);
    hw::LatencyConfig cfg;
    runtime_sim::LibPreemptibleConfig rc;
    rc.nWorkers = 4;
    rc.quantum = usToNs(5);
    runtime_sim::LibPreemptibleSim lib(s2, cfg, rc);
    const auto &real = drive(lib, s2, "A1", rps, duration);

    EXPECT_EQ(oracle.arrived(), oracle.completed());
    // No implementable system beats the zero-overhead SRPT oracle.
    EXPECT_GE(real.lcLatency().mean(), oracle_mean * 0.95);
}

TEST(QueueingTheory, LightLoadLatencyApproachesServiceTime)
{
    // M/M/4 at 5% load: sojourn ~= service demand.
    sim::Simulator sim(3);
    hw::LatencyConfig cfg;
    runtime_sim::LibPreemptibleConfig rc;
    rc.nWorkers = 4;
    rc.quantum = usToNs(100);
    runtime_sim::LibPreemptibleSim lib(sim, cfg, rc);
    const auto &m = drive(lib, sim, "B", 40e3, msToNs(100));
    // Mean sojourn within ~25% of the 5 us mean demand (plus fixed
    // dispatch costs).
    EXPECT_NEAR(m.lcLatency().mean(), 5000.0 + 300.0, 1500.0);
}

TEST(QueueingTheory, PsSojournMatchesMm1Formula)
{
    // For M/M/1-PS, E[T] = E[S] / (1 - rho). Run PS on one core at
    // rho = 0.5 with exponential(5us) service.
    sim::Simulator sim(5);
    ProcessorSharingSim ps(sim, 1);
    const auto &m = drive(ps, sim, "B", 100e3, msToNs(400));
    double expect = 5000.0 / (1.0 - 0.5);
    EXPECT_NEAR(m.lcLatency().mean(), expect, expect * 0.1);
}

TEST(WorkStealing, ConservesAndEngagesIdleWorkers)
{
    sim::Simulator sim(1);
    hw::LatencyConfig cfg;
    runtime_sim::LibPreemptibleConfig rc;
    rc.nWorkers = 4;
    rc.quantum = usToNs(10);
    rc.workStealing = true;
    runtime_sim::LibPreemptibleSim lib(sim, cfg, rc);
    const auto &m = drive(lib, sim, "A1", 400e3, msToNs(60));
    EXPECT_GT(m.arrived(), 1000u);
    EXPECT_EQ(m.arrived(), m.completed());
    EXPECT_EQ(lib.inFlight(), 0u);
}

TEST(SloCancellation, DropsHopelessRequestsUnderOverload)
{
    sim::Simulator sim(1);
    hw::LatencyConfig cfg;
    runtime_sim::LibPreemptibleConfig rc;
    rc.nWorkers = 1;
    rc.quantum = usToNs(5);
    rc.requestDeadline = usToNs(200);
    runtime_sim::LibPreemptibleSim lib(sim, cfg, rc);
    // 2x overload on one worker.
    const auto &m = drive(lib, sim, "B", 400e3, msToNs(50));
    EXPECT_GT(m.cancelled(), 0u);
    EXPECT_EQ(m.arrived(), m.completed() + m.cancelled());
    EXPECT_EQ(lib.inFlight(), 0u);
    // Served requests see bounded sojourn: deadline + one service +
    // slack for in-progress segments.
    EXPECT_LT(m.lcLatency().p99(), usToNs(400));
}

TEST(SloCancellation, NoDropsAtLowLoad)
{
    sim::Simulator sim(1);
    hw::LatencyConfig cfg;
    runtime_sim::LibPreemptibleConfig rc;
    rc.nWorkers = 4;
    rc.quantum = usToNs(10);
    rc.requestDeadline = msToNs(10);
    runtime_sim::LibPreemptibleSim lib(sim, cfg, rc);
    const auto &m = drive(lib, sim, "B", 100e3, msToNs(50));
    EXPECT_EQ(m.cancelled(), 0u);
    EXPECT_EQ(m.arrived(), m.completed());
}

TEST(PostedIpi, DeliversWithTrapDelay)
{
    sim::Simulator sim(1);
    hw::LatencyConfig cfg;
    hw::PostedIpiUnit apic(sim, cfg);
    TimeNs delivered_at = 0;
    int target = apic.attachTarget([&](TimeNs t) { delivered_at = t; });
    TimeNs cost = apic.sendIpi(target);
    EXPECT_EQ(cost, cfg.postedIpiSend);
    sim.runAll();
    EXPECT_GE(delivered_at,
              cfg.postedIpiDelivery.floorNs() + cfg.shinjukuTrapCost);
    EXPECT_EQ(apic.stats().delivered, 1u);
}

TEST(PostedIpi, PendingSendsCoalesce)
{
    sim::Simulator sim(1);
    hw::LatencyConfig cfg;
    hw::PostedIpiUnit apic(sim, cfg);
    int hits = 0;
    int target = apic.attachTarget([&](TimeNs) { ++hits; });
    apic.sendIpi(target);
    apic.sendIpi(target);
    apic.sendIpi(target);
    sim.runAll();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(apic.stats().coalesced, 2u);
    // After delivery the pending bit clears and sends land again.
    apic.sendIpi(target);
    sim.runAll();
    EXPECT_EQ(hits, 2);
}

TEST(PostedIpi, UnrestrictedFloodIsPossible)
{
    // The DoS exposure the paper describes: nothing stops a sender
    // from hammering every attached core.
    sim::Simulator sim(1);
    hw::LatencyConfig cfg;
    hw::PostedIpiUnit apic(sim, cfg);
    int hits = 0;
    int t0 = apic.attachTarget([&](TimeNs) { ++hits; });
    int t1 = apic.attachTarget([&](TimeNs) { ++hits; });
    for (int i = 0; i < 100; ++i) {
        apic.sendIpi(t0);
        apic.sendIpi(t1);
        sim.runAll();
    }
    EXPECT_EQ(hits, 200);
    EXPECT_EQ(apic.stats().sends, 200u);
}

TEST(PostedIpiDeath, TargetLimitEnforced)
{
    sim::Simulator sim(1);
    hw::LatencyConfig cfg;
    cfg.apicMaxTargets = 2;
    hw::PostedIpiUnit apic(sim, cfg);
    apic.attachTarget([](TimeNs) {});
    apic.attachTarget([](TimeNs) {});
    EXPECT_EXIT(apic.attachTarget([](TimeNs) {}),
                testing::ExitedWithCode(1), "at most 2");
}

} // namespace
} // namespace preempt
