/**
 * @file
 * Unit tests for the span-driven admission plane (src/control/):
 * state-machine semantics (ladder, hysteresis, duty walk), decide()
 * gating per state with exact conservation, fail-open on stale or
 * never-published snapshots, counter-reset immunity of the snapshot
 * signals, the real runtime's policy-reject path, and byte-identity
 * of the simulated runtime when the policy is configured but off.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>

#include "control/admission.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "preemptible/hosttime.hh"
#include "preemptible/runtime.hh"
#include "runtime_sim/libpreemptible_sim.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

namespace preempt::control {
namespace {

AdmissionSignals
highSignals()
{
    AdmissionSignals s;
    s.depth = 1 << 20; // any single signal at/over its high mark
    return s;
}

AdmissionSignals
lowSignals()
{
    return AdmissionSignals{}; // all zeros: at/below every low mark
}

AdmissionSignals
bandSignals(const AdmissionParams &p)
{
    AdmissionSignals s;
    s.depth = (p.depthLow + p.depthHigh) / 2; // between the marks
    return s;
}

// ----- pressure classification --------------------------------------

TEST(AdmissionPressure, ClassifiesLowBandHighAndFailsOpen)
{
    AdmissionParams p;
    EXPECT_EQ(AdmissionController::pressure(lowSignals(), p), 0);
    EXPECT_EQ(AdmissionController::pressure(bandSignals(p), p), 1);
    EXPECT_EQ(AdmissionController::pressure(highSignals(), p), 2);

    // Any one signal at its high mark dominates.
    AdmissionSignals s;
    s.queuedP99Ns = p.queuedHighNs;
    EXPECT_EQ(AdmissionController::pressure(s, p), 2);
    s = AdmissionSignals{};
    s.violationRatio = p.violationHigh;
    EXPECT_EQ(AdmissionController::pressure(s, p), 2);

    // Unfresh inputs are zero pressure no matter how bad they look.
    s = highSignals();
    s.fresh = false;
    EXPECT_EQ(AdmissionController::pressure(s, p), 0);
}

// ----- state machine ------------------------------------------------

TEST(AdmissionMachine, EscalatesOneStepAtATimeThroughTheDutyWalk)
{
    AdmissionParams p; // escalateAfter=2, dutySteps=8
    AdmissionController ac(p);

    // Two high ticks reach THROTTLE at the gentle end of the duty.
    ac.onTick(0, highSignals());
    EXPECT_EQ(ac.state(0), PolicyState::Admit);
    ac.onTick(0, highSignals());
    EXPECT_EQ(ac.state(0), PolicyState::Throttle);
    EXPECT_EQ(ac.tenantStats(0).duty, p.dutySteps - 1);

    // Sustained pressure tightens the duty one step per tick; only
    // with the duty exhausted may severity move past THROTTLE.
    for (std::uint32_t d = p.dutySteps - 1; d > 1; --d) {
        ASSERT_EQ(ac.state(0), PolicyState::Throttle) << "duty=" << d;
        ac.onTick(0, highSignals());
    }
    EXPECT_EQ(ac.state(0), PolicyState::ShedBe);

    ac.onTick(0, highSignals());
    ac.onTick(0, highSignals());
    EXPECT_EQ(ac.state(0), PolicyState::ShedLc);

    // Top of the ladder: more pressure changes nothing.
    std::uint64_t changes = ac.tenantStats(0).stateChanges;
    ac.onTick(0, highSignals());
    EXPECT_EQ(ac.state(0), PolicyState::ShedLc);
    EXPECT_EQ(ac.tenantStats(0).stateChanges, changes);
}

TEST(AdmissionMachine, RelaxesThroughTheDutyWalkBackToAdmit)
{
    AdmissionParams p;
    p.escalateAfter = 1;
    p.relaxAfter = 2;
    p.dutySteps = 4;
    AdmissionController ac(p);
    // Drive to the top: Admit -> Throttle(3) -> duty 2,1 -> ShedBe
    // -> ShedLc.
    for (int i = 0; i < 8 && ac.state(0) != PolicyState::ShedLc; ++i)
        ac.onTick(0, highSignals());
    ASSERT_EQ(ac.state(0), PolicyState::ShedLc);

    ac.onTick(0, lowSignals());
    EXPECT_EQ(ac.state(0), PolicyState::ShedLc) << "one low tick only";
    ac.onTick(0, lowSignals());
    EXPECT_EQ(ac.state(0), PolicyState::ShedBe);
    ac.onTick(0, lowSignals());
    ac.onTick(0, lowSignals());
    EXPECT_EQ(ac.state(0), PolicyState::Throttle);
    EXPECT_EQ(ac.tenantStats(0).duty, 1u) << "recovery starts gentle";

    // The duty must recover fully before ADMIT.
    while (ac.state(0) == PolicyState::Throttle)
        ac.onTick(0, lowSignals());
    EXPECT_EQ(ac.state(0), PolicyState::Admit);
    EXPECT_EQ(ac.tenantStats(0).duty, p.dutySteps);
}

TEST(AdmissionMachine, HysteresisBandHoldsStateAndRestartsStreaks)
{
    AdmissionParams p; // escalateAfter=2
    AdmissionController ac(p);
    // high, band, high, band, ... never accumulates two consecutive
    // highs, so the state must hold at ADMIT forever.
    for (int i = 0; i < 20; ++i) {
        ac.onTick(0, highSignals());
        ac.onTick(0, bandSignals(p));
    }
    EXPECT_EQ(ac.state(0), PolicyState::Admit);
    EXPECT_EQ(ac.tenantStats(0).stateChanges, 0u);
}

TEST(AdmissionMachine, UnfreshTicksRelaxAnOverloadedTenant)
{
    AdmissionParams p;
    p.escalateAfter = 1;
    p.relaxAfter = 1;
    p.dutySteps = 2;
    AdmissionController ac(p);
    for (int i = 0; i < 4 && ac.state(0) != PolicyState::ShedLc; ++i)
        ac.onTick(0, highSignals());
    ASSERT_EQ(ac.state(0), PolicyState::ShedLc);

    // Telemetry dies (fresh=false): the machine must walk all the way
    // home — an outage can never wedge the system shut.
    AdmissionSignals dead = highSignals();
    dead.fresh = false;
    for (int i = 0; i < 16; ++i)
        ac.onTick(0, dead);
    EXPECT_EQ(ac.state(0), PolicyState::Admit);
}

// ----- decide() gating ----------------------------------------------

TEST(AdmissionDecide, PerStateSemanticsAndExactConservation)
{
    AdmissionParams p;
    p.escalateAfter = 1;
    p.dutySteps = 4;
    p.lcTrickle = 8;
    AdmissionController ac(p);

    // ADMIT: everything passes.
    EXPECT_TRUE(ac.decide(0, 0));
    EXPECT_TRUE(ac.decide(0, 1));

    // THROTTLE at duty 3-in-4: LC all pass, BE passes 3 of 4.
    ac.onTick(0, highSignals());
    ASSERT_EQ(ac.state(0), PolicyState::Throttle);
    ASSERT_EQ(ac.tenantStats(0).duty, 3u);
    int beAdmitted = 0;
    for (int i = 0; i < 40; ++i) {
        EXPECT_TRUE(ac.decide(0, 0));
        beAdmitted += ac.decide(0, 1) ? 1 : 0;
    }
    EXPECT_EQ(beAdmitted, 30) << "3-in-4 duty over 40 BE submits";

    // SHED_BE: LC passes, BE never. (Two more high ticks walk the
    // duty 3 -> 2 -> 1 and escalate out of THROTTLE.)
    ac.onTick(0, highSignals());
    ac.onTick(0, highSignals());
    ASSERT_EQ(ac.state(0), PolicyState::ShedBe);
    for (int i = 0; i < 16; ++i) {
        EXPECT_TRUE(ac.decide(0, 0));
        EXPECT_FALSE(ac.decide(0, 1));
    }

    // SHED_LC: BE never, LC exactly 1-in-lcTrickle.
    ac.onTick(0, highSignals());
    ASSERT_EQ(ac.state(0), PolicyState::ShedLc);
    int lcAdmitted = 0;
    for (int i = 0; i < 64; ++i) {
        lcAdmitted += ac.decide(0, 0) ? 1 : 0;
        EXPECT_FALSE(ac.decide(0, 1));
    }
    EXPECT_EQ(lcAdmitted, 64 / 8);

    // Conservation is exact, per class.
    TenantAdmissionStats st = ac.tenantStats(0);
    EXPECT_EQ(st.submittedLc, st.admittedLc + st.rejectedLc);
    EXPECT_EQ(st.submittedBe, st.admittedBe + st.rejectedBe);
    EXPECT_EQ(st.submitted(), st.admitted() + st.rejected());
}

TEST(AdmissionDecide, TenantsAreIndependent)
{
    AdmissionParams p;
    p.escalateAfter = 1;
    AdmissionController ac(p);
    ac.onTick(7, highSignals());
    ac.onTick(7, highSignals());
    EXPECT_EQ(ac.state(7), PolicyState::Throttle);
    EXPECT_EQ(ac.state(3), PolicyState::Admit);
    EXPECT_TRUE(ac.decide(3, 1)) << "tenant 3 is unaffected";
    ASSERT_EQ(ac.tenants().size(), 2u);
}

// ----- exported metrics ---------------------------------------------

TEST(AdmissionExport, PerTenantSeriesAreDeltaFed)
{
    obs::MetricsRegistry reg;
    AdmissionController ac;
    ac.decide(1, 0);
    ac.decide(1, 0);
    ac.decide(1, 1);
    ac.exportMetrics(reg);
    EXPECT_EQ(reg.counter("control.admitted.lc/t1").value(), 2u);
    EXPECT_EQ(reg.counter("control.admitted.be/t1").value(), 1u);
    EXPECT_EQ(reg.gauge("control.state/t1").value(), 0);
    EXPECT_EQ(reg.gauge("control.duty/t1").value(),
              static_cast<std::int64_t>(ac.params().dutySteps));

    // Re-export without new decisions: totals must not double.
    ac.exportMetrics(reg);
    EXPECT_EQ(reg.counter("control.admitted.lc/t1").value(), 2u);
    ac.decide(1, 0);
    ac.exportMetrics(reg);
    EXPECT_EQ(reg.counter("control.admitted.lc/t1").value(), 3u);
}

#ifndef PREEMPT_OBS_DISABLED

// ----- snapshot edges -----------------------------------------------

obs::TelemetrySnapshot
overloadSnapshot(std::uint64_t seq, std::uint32_t tenant)
{
    obs::TelemetrySnapshot snap;
    snap.seq = seq;
    obs::TelemetrySnapshot::TenantSpans ts;
    ts.tenant = tenant;
    ts.window.completed = 100;
    ts.window.violations = 100; // ratio 1.0: far past violationHigh
    ts.window.queued.p99 = 50 * 1000 * 1000;
    snap.spans.push_back(ts);
    obs::TelemetrySnapshot::GaugeSample g;
    g.name = tenant == 0 ? "runtime.in_flight"
                         : "runtime/t" + std::to_string(tenant) +
                               ".in_flight";
    g.value = 1000;
    snap.gauges.push_back(g);
    return snap;
}

TEST(AdmissionSnapshot, SignalsComeFromWindowSpansAndDepthGauge)
{
    obs::TelemetrySnapshot snap = overloadSnapshot(3, 2);
    AdmissionSignals s =
        AdmissionController::signalsFromSnapshot(snap, 2);
    EXPECT_TRUE(s.fresh);
    EXPECT_EQ(s.queuedP99Ns, 50u * 1000 * 1000);
    EXPECT_DOUBLE_EQ(s.violationRatio, 1.0);
    EXPECT_EQ(s.depth, 1000);

    // A tenant absent from the snapshot reads as zero pressure.
    AdmissionSignals none =
        AdmissionController::signalsFromSnapshot(snap, 9);
    EXPECT_EQ(none.queuedP99Ns, 0u);
    EXPECT_EQ(none.depth, 0);
}

TEST(AdmissionSnapshot, NeverPublishedAndStaleSnapshotsFailOpen)
{
    AdmissionParams p;
    p.escalateAfter = 1;
    p.relaxAfter = 1;
    p.dutySteps = 2;
    AdmissionController ac(p);

    // seq 0 = publisher never ticked: overloaded-looking numbers are
    // untrusted, the tenant must stay at ADMIT.
    obs::TelemetrySnapshot never = overloadSnapshot(0, 0);
    for (int i = 0; i < 4; ++i)
        ac.onSnapshot(never);
    EXPECT_EQ(ac.state(0), PolicyState::Admit);

    // A fresh overloaded snapshot escalates...
    ac.onSnapshot(overloadSnapshot(1, 0));
    EXPECT_EQ(ac.state(0), PolicyState::Throttle);

    // ...but replays of the same seq (stale publisher) are zero
    // pressure and relax the machine back home.
    obs::TelemetrySnapshot stale = overloadSnapshot(2, 0);
    ac.onSnapshot(stale);
    for (int i = 0; i < 8; ++i)
        ac.onSnapshot(stale);
    EXPECT_EQ(ac.state(0), PolicyState::Admit);
}

TEST(AdmissionSnapshot, CounterResetsCannotSpikeTheShedRate)
{
    // The violation ratio is computed from windowed span finishes, so
    // a lifetime-counter re-base (StatTracker reset detection) must
    // not move any signal.
    obs::TelemetrySnapshot snap;
    snap.seq = 5;
    obs::TelemetrySnapshot::TenantSpans ts;
    ts.tenant = 0;
    ts.completed = 10;         // lifetime counters rolled back...
    ts.violations = 9;         // ...and look catastrophic
    ts.window.completed = 200; // the window is healthy
    ts.window.violations = 1;
    ts.window.queued.p99 = 1000;
    snap.spans.push_back(ts);
    obs::TelemetrySnapshot::CounterSample c;
    c.name = "runtime.completed";
    c.value = 10;
    c.resets = 3; // source restarted mid-window
    snap.counters.push_back(c);

    AdmissionSignals s =
        AdmissionController::signalsFromSnapshot(snap, 0);
    EXPECT_DOUBLE_EQ(s.violationRatio, 1.0 / 200.0);
    AdmissionController ac;
    ac.onSnapshot(snap);
    ac.onSnapshot(snap); // stale replay: still no escalation
    EXPECT_EQ(ac.state(0), PolicyState::Admit);
    EXPECT_EQ(ac.tenantStats(0).stateChanges, 0u);
}

TEST(AdmissionSnapshot, HandFedPublisherRoundTrip)
{
    // End-to-end against a real (never-started) publisher: tickNow()
    // publishes, snapshot() feeds the controller; a second read of the
    // same snapshot is stale.
    obs::MetricsRegistry reg;
    obs::TelemetryPublisher::Options opt;
    opt.interval = msToNs(10);
    obs::TelemetryPublisher pub(&reg, nullptr, opt);

    AdmissionController ac;
    auto before = pub.snapshot();
    EXPECT_EQ(before->seq, 0u) << "no tick yet";
    ac.onSnapshot(*before);
    EXPECT_EQ(ac.tenantStats(0).ticks, 0u)
        << "empty snapshot names no tenants";

    reg.gauge("runtime.in_flight").set(3);
    pub.tickNow();
    auto snap = pub.snapshot();
    EXPECT_EQ(snap->seq, 1u);
    AdmissionSignals s =
        AdmissionController::signalsFromSnapshot(*snap, 0);
    EXPECT_TRUE(s.fresh);
    EXPECT_EQ(s.depth, 3);
}

#endif // !PREEMPT_OBS_DISABLED

// ----- real runtime gate --------------------------------------------

TEST(AdmissionRuntime, PolicyRejectionIsCountedAndRecovers)
{
    AdmissionParams p;
    p.escalateAfter = 1;
    p.relaxAfter = 1;
    p.dutySteps = 2;
    auto ac = std::make_shared<AdmissionController>(p);

    runtime::PreemptibleRuntime::Options opt;
    opt.nWorkers = 1;
    opt.idleNap = usToNs(50);
    opt.admission = ac;
    runtime::PreemptibleRuntime rt(opt);

    // Force SHED_BE by stepping the policy directly (the closed loop
    // is exercised via the publisher path; here the gate is under
    // test): Admit -> Throttle(duty=1) -> ShedBe.
    ac->onTick(0, highSignals());
    ac->onTick(0, highSignals());
    ASSERT_EQ(ac->state(0), PolicyState::ShedBe);

    std::atomic<int> ran{0};
    EXPECT_FALSE(rt.submit([&] { ran.fetch_add(1); }, /*cls=*/1));
    EXPECT_TRUE(rt.submit([&] { ran.fetch_add(1); }, /*cls=*/0))
        << "LC must still be admitted while BE is shed";
    runtime::RuntimeStats st = rt.stats();
    EXPECT_EQ(st.rejectedPolicy, 1u);
    EXPECT_EQ(st.rejectedFull, 0u);

    // Recovery: relax home, BE flows again.
    for (int i = 0; i < 8 && ac->state(0) != PolicyState::Admit; ++i)
        ac->onTick(0, lowSignals());
    ASSERT_EQ(ac->state(0), PolicyState::Admit);
    EXPECT_TRUE(rt.submit([&] { ran.fetch_add(1); }, /*cls=*/1));
    rt.quiesce();
    rt.shutdown();
    EXPECT_EQ(ran.load(), 2);

    TenantAdmissionStats ts = ac->tenantStats(0);
    EXPECT_EQ(ts.submitted(), ts.admitted() + ts.rejected());
    EXPECT_EQ(ts.rejectedBe, 1u);
}

// ----- simulated runtime --------------------------------------------

TEST(AdmissionSim, DisabledPolicyLeavesTraceByteIdentical)
{
    // admission.enabled=false must schedule nothing and touch nothing,
    // whatever the rest of the admission config says — the off leg of
    // the fig_admission A/B.
    auto traced = [](bool configure) {
        obs::Tracer tracer;
        obs::setTracer(&tracer);
        sim::Simulator sim(123);
        hw::LatencyConfig cfg;
        runtime_sim::LibPreemptibleConfig rc;
        rc.nWorkers = 2;
        rc.quantum = usToNs(5);
        if (configure) {
            rc.admission.enabled = false; // explicit off
            rc.admission.tickPeriod = usToNs(100);
            rc.admission.sloNs = usToNs(50);
            rc.admission.params.depthHigh = 1;
            rc.admission.params.depthLow = 0;
        }
        runtime_sim::LibPreemptibleSim server(sim, cfg, rc);
        TimeNs duration = msToNs(5);
        workload::WorkloadSpec spec{
            workload::makeServiceLaw("A1", duration),
            workload::RateLaw::constant(150000), duration};
        workload::OpenLoopGenerator gen(
            sim, std::move(spec),
            [&](workload::Request &r) { server.onArrival(r); });
        gen.start();
        sim.runUntil(duration + secToNs(30));
        EXPECT_EQ(server.admissionController(), nullptr);
        obs::setTracer(nullptr);
        std::ostringstream os;
        obs::writeChromeTrace(tracer, os);
        return os.str();
    };
    std::string baseline = traced(false);
    std::string explicit_off = traced(true);
#ifndef PREEMPT_OBS_DISABLED
    EXPECT_GT(baseline.size(), 1000u);
#endif
    EXPECT_EQ(baseline, explicit_off);
}

TEST(AdmissionSim, OverloadShedsAndConservesEveryArrival)
{
    sim::Simulator sim(7);
    hw::LatencyConfig cfg;
    runtime_sim::LibPreemptibleConfig rc;
    rc.nWorkers = 1;
    rc.quantum = usToNs(5);
    rc.policy = runtime_sim::SchedPolicy::RoundRobin;
    rc.admission.enabled = true;
    rc.admission.tickPeriod = msToNs(1);
    rc.admission.sloNs = msToNs(1);
    rc.admission.params.depthHigh = 32;
    rc.admission.params.depthLow = 8;
    runtime_sim::LibPreemptibleSim server(sim, cfg, rc);

    // ~3x a single worker's capacity for this service law.
    TimeNs duration = msToNs(100);
    workload::WorkloadSpec spec{
        workload::ServiceLaw(std::make_shared<LogNormalDist>(30e3, 0.4)),
        workload::RateLaw::constant(90000), duration};
    spec.beFraction = 0.5;
    spec.beService = std::make_shared<workload::ServiceLaw>(
        std::make_shared<LogNormalDist>(60e3, 0.3));
    workload::OpenLoopGenerator gen(sim, std::move(spec),
                                    [&](workload::Request &r) {
                                        server.onArrival(r);
                                    });
    gen.start();
    sim.runUntil(duration + secToNs(5));

    const workload::RunMetrics &m = server.metrics();
    EXPECT_GT(m.rejected(), 0u) << "3x overload must shed";
    EXPECT_EQ(m.arrived(),
              m.completed() + m.cancelled() + m.rejected())
        << "every arrival admitted-and-finished or rejected";
    EXPECT_EQ(server.inFlight(), 0u);

    ASSERT_NE(server.admissionController(), nullptr);
    TenantAdmissionStats ts =
        server.admissionController()->tenantStats(0);
    EXPECT_EQ(ts.submitted(), ts.admitted() + ts.rejected());
    EXPECT_EQ(ts.submitted(), m.arrived());
    EXPECT_EQ(ts.rejected(), m.rejected());
    EXPECT_GT(ts.stateChanges, 0u);
    // Load is gone: the machine must have walked home.
    EXPECT_EQ(server.admissionController()->state(0),
              PolicyState::Admit);
}

} // namespace
} // namespace preempt::control
