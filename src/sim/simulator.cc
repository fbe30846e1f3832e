#include "sim/simulator.hh"

#include <memory>

#include "common/logging.hh"

namespace preempt::sim {

Simulator::Simulator(std::uint64_t seed)
    : now_(0), rng_(seed), stopped_(false), eventsRun_(0)
{
}

std::function<void()>
Simulator::every(TimeNs interval, std::function<void(TimeNs)> fn)
{
    fatal_if(interval == 0, "periodic task interval must be > 0");
    // Shared state so the cancel closure can stop future reschedules.
    // Each scheduled tick is a fresh lambda holding the state; the
    // state itself holds no self-reference, so nothing leaks when the
    // last pending tick is destroyed (a self-capturing std::function
    // would be an unreclaimable shared_ptr cycle).
    auto p = std::make_shared<Periodic>();
    p->interval = interval;
    p->fn = std::move(fn);
    p->id = after(interval, [this, p](TimeNs t) { periodicStep(p, t); });
    return [this, p]() {
        p->cancelled = true;
        events_.cancel(p->id);
    };
}

void
Simulator::periodicStep(const std::shared_ptr<Periodic> &p, TimeNs t)
{
    if (p->cancelled)
        return;
    p->fn(t);
    if (!p->cancelled) {
        p->id = events_.schedule(
            t + p->interval,
            [this, p](TimeNs next) { periodicStep(p, next); });
    }
}

void
Simulator::drain(TimeNs limit)
{
    stopped_ = false;
    TimeNs when = 0;
    EventCallback fn;
    while (!stopped_ && events_.popDue(limit, when, fn)) {
        now_ = when;
        fn(when);
        // Destroy the callback and its captures before the next pop,
        // as runOne() does, so every()'s shared_ptr<Periodic> captures
        // die in the same order as under one call per event.
        fn.reset();
        ++eventsRun_;
    }
}

void
Simulator::runUntil(TimeNs limit)
{
    drain(limit);
    if (now_ < limit && events_.empty())
        now_ = limit;
}

void
Simulator::runAll()
{
    drain(kTimeNever);
}

} // namespace preempt::sim
