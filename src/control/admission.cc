#include "control/admission.hh"

#include <string>

#include "common/logging.hh"

namespace preempt::control {

const char *
stateName(PolicyState state)
{
    switch (state) {
    case PolicyState::Admit:
        return "admit";
    case PolicyState::Throttle:
        return "throttle";
    case PolicyState::ShedBe:
        return "shed_be";
    case PolicyState::ShedLc:
        return "shed_lc";
    }
    return "?";
}

AdmissionController::AdmissionController(AdmissionParams params)
    : params_(params)
{
    fatal_if(params_.escalateAfter < 1 || params_.relaxAfter < 1,
             "hysteresis streaks must be >= 1");
    fatal_if(params_.dutySteps < 2, "dutySteps must be >= 2");
    fatal_if(params_.lcTrickle < 1, "lcTrickle must be >= 1");
    fatal_if(params_.queuedLowNs > params_.queuedHighNs ||
                 params_.violationLow > params_.violationHigh ||
                 params_.depthLow > params_.depthHigh,
             "admission low thresholds must not exceed the high ones");
}

AdmissionController::~AdmissionController()
{
#ifndef PREEMPT_OBS_DISABLED
    detachPublisher();
#endif
}

AdmissionController::Tenant &
AdmissionController::tenantRef(std::uint32_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(id);
    if (it == tenants_.end()) {
        it = tenants_.emplace(id, std::make_unique<Tenant>()).first;
        it->second->duty.store(params_.dutySteps,
                               std::memory_order_relaxed);
    }
    return *it->second;
}

bool
AdmissionController::decide(std::uint32_t tenant, int cls)
{
    Tenant &t = tenantRef(tenant);
    bool lc = cls == 0;
    (lc ? t.submittedLc : t.submittedBe)
        .fetch_add(1, std::memory_order_relaxed);

    auto s = static_cast<PolicyState>(
        t.state.load(std::memory_order_acquire));
    bool admit = true;
    switch (s) {
    case PolicyState::Admit:
        break;
    case PolicyState::Throttle:
        // LC always passes; BE at duty-in-dutySteps, spread evenly by
        // a deterministic per-tenant decision counter (no RNG).
        admit = lc ||
                t.beSeq.fetch_add(1, std::memory_order_relaxed) %
                        params_.dutySteps <
                    t.duty.load(std::memory_order_relaxed);
        break;
    case PolicyState::ShedBe:
        admit = lc;
        break;
    case PolicyState::ShedLc:
        // The only state that rejects LC — and it admits no BE, so
        // severity stays monotone by construction.
        admit = lc &&
                t.lcSeq.fetch_add(1, std::memory_order_relaxed) %
                        params_.lcTrickle ==
                    0;
        break;
    }

    if (admit) {
        (lc ? t.admittedLc : t.admittedBe)
            .fetch_add(1, std::memory_order_relaxed);
        obs::addCount("control.admit");
    } else {
        (lc ? t.rejectedLc : t.rejectedBe)
            .fetch_add(1, std::memory_order_relaxed);
        if (lc)
            obs::addCount("control.shed.lc");
        else if (s == PolicyState::Throttle)
            obs::addCount("control.throttle");
        else
            obs::addCount("control.shed.be");
    }
    return admit;
}

int
AdmissionController::pressure(const AdmissionSignals &signals,
                              const AdmissionParams &params)
{
    if (!signals.fresh)
        return 0; // untrusted inputs relax toward ADMIT (fail open)
    bool high = signals.queuedP99Ns >= params.queuedHighNs ||
                signals.violationRatio >= params.violationHigh ||
                signals.depth >= params.depthHigh;
    if (high)
        return 2;
    bool low = signals.queuedP99Ns <= params.queuedLowNs &&
               signals.violationRatio <= params.violationLow &&
               signals.depth <= params.depthLow;
    return low ? 0 : 1;
}

void
AdmissionController::setState(Tenant &t, PolicyState next)
{
    auto prev = static_cast<PolicyState>(
        t.state.load(std::memory_order_relaxed));
    if (prev == next)
        return;
    // Entering THROTTLE starts the duty cycle at the gentle end for
    // the direction travelled: barely shedding when escalating from
    // ADMIT, barely admitting when recovering from SHED_BE.
    if (next == PolicyState::Throttle)
        t.duty.store(prev == PolicyState::Admit ? params_.dutySteps - 1
                                                : 1,
                     std::memory_order_relaxed);
    t.state.store(static_cast<std::uint8_t>(next),
                  std::memory_order_release);
    ++t.stateChanges;
}

void
AdmissionController::onTick(std::uint32_t tenant,
                            const AdmissionSignals &signals)
{
    Tenant &t = tenantRef(tenant);
    ++t.ticks;
    int pr = pressure(signals, params_);
    auto s = static_cast<PolicyState>(
        t.state.load(std::memory_order_relaxed));
    std::uint32_t duty = t.duty.load(std::memory_order_relaxed);

    if (pr == 2) {
        t.lowStreak = 0;
        ++t.highStreak;
        // Tighten the duty cycle first: BE degrades one step per tick
        // inside THROTTLE before severity escalates past it.
        if (s == PolicyState::Throttle && duty > 1)
            t.duty.store(duty - 1, std::memory_order_relaxed);
        if (t.highStreak >= params_.escalateAfter &&
            s < PolicyState::ShedLc &&
            (s != PolicyState::Throttle ||
             t.duty.load(std::memory_order_relaxed) <= 1)) {
            setState(t, static_cast<PolicyState>(
                            static_cast<std::uint8_t>(s) + 1));
            t.highStreak = 0;
        }
    } else if (pr == 0) {
        t.highStreak = 0;
        ++t.lowStreak;
        // Recover the duty cycle before leaving THROTTLE entirely.
        if (s == PolicyState::Throttle && duty < params_.dutySteps)
            t.duty.store(duty + 1, std::memory_order_relaxed);
        if (t.lowStreak >= params_.relaxAfter && s > PolicyState::Admit &&
            (s != PolicyState::Throttle ||
             t.duty.load(std::memory_order_relaxed) >=
                 params_.dutySteps)) {
            setState(t, static_cast<PolicyState>(
                            static_cast<std::uint8_t>(s) - 1));
            t.lowStreak = 0;
        }
    } else {
        // Hysteresis band: hold the state, restart both streaks.
        t.highStreak = 0;
        t.lowStreak = 0;
    }
}

PolicyState
AdmissionController::state(std::uint32_t tenant) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        return PolicyState::Admit;
    return static_cast<PolicyState>(
        it->second->state.load(std::memory_order_acquire));
}

TenantAdmissionStats
AdmissionController::tenantStats(std::uint32_t tenant) const
{
    TenantAdmissionStats out;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
        out.duty = params_.dutySteps;
        return out;
    }
    const Tenant &t = *it->second;
    out.state = static_cast<PolicyState>(
        t.state.load(std::memory_order_acquire));
    out.duty = t.duty.load(std::memory_order_relaxed);
    out.ticks = t.ticks;
    out.stateChanges = t.stateChanges;
    out.submittedLc = t.submittedLc.load(std::memory_order_relaxed);
    out.submittedBe = t.submittedBe.load(std::memory_order_relaxed);
    out.admittedLc = t.admittedLc.load(std::memory_order_relaxed);
    out.admittedBe = t.admittedBe.load(std::memory_order_relaxed);
    out.rejectedLc = t.rejectedLc.load(std::memory_order_relaxed);
    out.rejectedBe = t.rejectedBe.load(std::memory_order_relaxed);
    return out;
}

std::vector<std::uint32_t>
AdmissionController::tenants() const
{
    std::vector<std::uint32_t> out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(tenants_.size());
    for (const auto &kv : tenants_)
        out.push_back(kv.first);
    return out;
}

void
AdmissionController::exportMetrics(obs::MetricsRegistry &registry)
{
    auto bump = [&registry](const std::string &name, std::uint64_t total,
                            std::uint64_t &prev) {
        if (total > prev)
            registry.counter(name).add(total - prev);
        prev = total;
    };
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &kv : tenants_) {
        Tenant &t = *kv.second;
        std::string suffix = "/t" + std::to_string(kv.first);
        registry.gauge("control.state" + suffix)
            .set(t.state.load(std::memory_order_acquire));
        registry.gauge("control.duty" + suffix)
            .set(t.duty.load(std::memory_order_relaxed));
        bump("control.admitted.lc" + suffix,
             t.admittedLc.load(std::memory_order_relaxed),
             t.pubAdmittedLc);
        bump("control.admitted.be" + suffix,
             t.admittedBe.load(std::memory_order_relaxed),
             t.pubAdmittedBe);
        bump("control.rejected.lc" + suffix,
             t.rejectedLc.load(std::memory_order_relaxed),
             t.pubRejectedLc);
        bump("control.rejected.be" + suffix,
             t.rejectedBe.load(std::memory_order_relaxed),
             t.pubRejectedBe);
    }
}

#ifndef PREEMPT_OBS_DISABLED

AdmissionSignals
AdmissionController::signalsFromSnapshot(
    const obs::TelemetrySnapshot &snap, std::uint32_t tenant)
{
    AdmissionSignals out;
    out.fresh = snap.seq != 0;
    for (const auto &ts : snap.spans) {
        if (ts.tenant != tenant)
            continue;
        // Windowed figures only: counter resets re-base lifetime
        // rates, but the window is rebuilt from epoch histograms, so
        // the ratio cannot spike on a re-base.
        out.queuedP99Ns = ts.window.queued.p99;
        std::uint64_t finished =
            ts.window.completed + ts.window.cancelled;
        out.violationRatio =
            finished == 0 ? 0.0
                          : static_cast<double>(ts.window.violations) /
                                static_cast<double>(finished);
        break;
    }
    std::string depthGauge =
        tenant == 0 ? "runtime.in_flight"
                    : "runtime/t" + std::to_string(tenant) + ".in_flight";
    for (const auto &g : snap.gauges) {
        if (g.name == depthGauge) {
            out.depth = g.value;
            break;
        }
    }
    return out;
}

void
AdmissionController::onSnapshot(const obs::TelemetrySnapshot &snap)
{
    bool fresh = snap.seq != 0 && snap.seq != lastSeq_;
    lastSeq_ = snap.seq;

    std::vector<std::uint32_t> ids = tenants();
    for (const auto &ts : snap.spans) {
        bool known = false;
        for (std::uint32_t id : ids)
            known = known || id == ts.tenant;
        if (!known)
            ids.push_back(ts.tenant);
    }
    for (std::uint32_t id : ids) {
        AdmissionSignals s;
        if (fresh)
            s = signalsFromSnapshot(snap, id);
        s.fresh = s.fresh && fresh;
        onTick(id, s);
    }
}

void
AdmissionController::attachPublisher(obs::TelemetryPublisher *publisher)
{
    detachPublisher();
    publisher_ = publisher;
    if (!publisher_)
        return;
    // Samplers run on the publisher thread right before each snapshot
    // is built: polling snapshot() here reads the previous published
    // one (a one-tick-delayed closed loop), and the control series
    // exported below land in the snapshot being built.
    samplerId_ = obs::registerTelemetrySampler(
        [this](obs::MetricsRegistry &registry) {
            onSnapshot(*publisher_->snapshot());
            exportMetrics(registry);
        });
}

void
AdmissionController::detachPublisher()
{
    if (samplerId_ != 0) {
        obs::unregisterTelemetrySampler(samplerId_);
        samplerId_ = 0;
    }
    publisher_ = nullptr;
}

#endif // !PREEMPT_OBS_DISABLED

} // namespace preempt::control
