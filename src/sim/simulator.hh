/**
 * @file
 * Top-level simulation driver: owns the clock, the event queue, and
 * the root random stream.
 */

#ifndef PREEMPT_SIM_SIMULATOR_HH
#define PREEMPT_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "common/rng.hh"
#include "common/time.hh"
#include "sim/event_queue.hh"

namespace preempt::sim {

/** Owns simulated time and drives events to completion. */
class Simulator
{
  public:
    /** @param seed root seed; all component streams derive from it. */
    explicit Simulator(std::uint64_t seed = 42);

    /** Current simulated time. */
    TimeNs now() const { return now_; }

    /** The event queue components schedule into. */
    EventQueue &events() { return events_; }

    /** Root RNG; components should fork() their own streams. */
    Rng &rng() { return rng_; }

    /** Schedule relative to now. */
    template <typename F>
    EventId
    after(TimeNs delay, F &&fn)
    {
        return events_.schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Schedule at an absolute time (must be >= now). */
    template <typename F>
    EventId
    at(TimeNs when, F &&fn)
    {
        panic_if(when < now_, "scheduling an event in the past");
        return events_.schedule(when, std::forward<F>(fn));
    }

    /**
     * Register a periodic task with a fixed interval; the task keeps
     * rescheduling itself until stop() or the horizon is reached.
     * Returns a cancel function.
     */
    std::function<void()> every(TimeNs interval,
                                std::function<void(TimeNs)> fn);

    /** Run until the queue drains or until the given time. */
    void runUntil(TimeNs limit);

    /** Run until the queue drains completely. */
    void runAll();

    /** Ask a running simulation to stop after the current event. */
    void stop() { stopped_ = true; }

    /** Events executed so far. */
    std::uint64_t eventsRun() const { return eventsRun_; }

  private:
    /** Shared state of one every() registration. */
    struct Periodic
    {
        bool cancelled = false;
        EventId id = kInvalidEvent;
        TimeNs interval = 0;
        std::function<void(TimeNs)> fn;
    };

    void periodicStep(const std::shared_ptr<Periodic> &p, TimeNs t);

    /** Fire events due by `limit`, one pop each, until stop(). */
    void drain(TimeNs limit);

    TimeNs now_;
    EventQueue events_;
    Rng rng_;
    bool stopped_;
    std::uint64_t eventsRun_;
};

} // namespace preempt::sim

#endif // PREEMPT_SIM_SIMULATOR_HH
