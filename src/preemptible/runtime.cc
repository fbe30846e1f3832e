#include "preemptible/runtime.hh"

#include <array>
#include <ctime>
#include <string>

#include "common/logging.hh"
#include "control/admission.hh"
#include "obs/metrics.hh"
#include "obs/spans.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "preemptible/hosttime.hh"

namespace preempt::runtime {

namespace {

/** Hard cap on a steal round so spoils fit a stack buffer. */
constexpr std::size_t kMaxStealBatch = 64;

/** Process-wide task id counter: colocated runtimes (one per tenant)
 *  share one id space so a span collector keyed by (epoch, id) never
 *  sees two tenants' tasks collide. */
std::atomic<std::uint64_t> g_nextTaskId{0};

} // namespace

PreemptibleRuntime::PreemptibleRuntime(Options options)
    : options_(std::move(options)), quantum_(options_.quantum)
{
    fatal_if(options_.nWorkers <= 0, "runtime needs at least one worker");
    fatal_if(options_.stealBatch == 0 ||
                 options_.stealBatch > kMaxStealBatch,
             "stealBatch must be in [1,%zu]", kMaxStealBatch);
    timer_.init(options_.timer);
    startedAt_ = hostNowNs();

    for (int i = 0; i < options_.nWorkers; ++i) {
        workers_.push_back(std::make_unique<WorkerState>(
            options_.queueCapacity, options_.seed,
            static_cast<std::uint64_t>(i)));
        WorkerState &w = *workers_.back();
        // The shard fire path touches only the task's atomic flag and
        // the shard owner's counters: the task stays alive because
        // every deletion first cancels the pending deadline under the
        // same shard mutex the fire callback runs under.
        auto onFire = [&w](std::uint64_t cookie, TimeNs, TimeNs) {
            auto *task = reinterpret_cast<TaskRecord *>(cookie);
            task->deadlineExpired.store(true, std::memory_order_release);
            w.count(RuntimeCounter::DeadlineFires);
        };
        w.shard = std::make_unique<WheelShard>(
            options_.wheelTick, options_.wheelSlots,
            options_.wheelLevels, onFire);
        w.shard->primeTo(hostNowNs());
        timer_.registerWheel(w.shard.get());
    }
    for (int i = 0; i < options_.nWorkers; ++i)
        workerAt(i).thread = std::thread([this, i] { workerMain(i); });

    samplerId_ = obs::registerTelemetrySampler(
        [this](obs::MetricsRegistry &r) { sampleTelemetry(r); });
}

PreemptibleRuntime::~PreemptibleRuntime()
{
    shutdown();
}

bool
PreemptibleRuntime::submit(std::function<void()> body, int cls)
{
    std::uint64_t slot = rrNext_.fetch_add(1, std::memory_order_relaxed);
    return submitTo(static_cast<int>(slot % workers_.size()),
                    std::move(body), cls, 0);
}

bool
PreemptibleRuntime::submitTo(int worker, std::function<void()> body,
                             int cls, TimeNs deadlineIn)
{
    fatal_if(!body, "submitting an empty task");
    fatal_if(stopping_.load(), "submit after shutdown");
    fatal_if(worker < 0 || worker >= options_.nWorkers,
             "submitTo target out of range");
    WorkerState &w = workerAt(worker);
    const auto track = static_cast<std::uint32_t>(worker);
    if (options_.admission &&
        !options_.admission->decide(options_.tenant, cls)) {
        // Policy rejection: first-class and before any task state
        // exists — no TaskSubmit span is opened, so span accounting
        // only ever sees admitted work.
        w.count(RuntimeCounter::RejectedPolicy);
        obs::emit(obs::EventKind::TaskReject, track, hostNowNs(),
                  g_nextTaskId.fetch_add(1, std::memory_order_relaxed),
                  static_cast<std::uint64_t>(cls), options_.tenant);
        return false;
    }
    auto task = std::make_unique<TaskRecord>();
    task->body = std::move(body);
    task->cls = cls;
    task->submitNs = hostNowNs();
    task->id = g_nextTaskId.fetch_add(1, std::memory_order_relaxed);
    task->owner = track;
    // Span anchor: end-to-end latency is measured from this record,
    // so span total == the sojourn payload on Complete, exactly.
    obs::emitSpan(obs::EventKind::TaskSubmit, track, task->submitNs,
                  task->id, static_cast<std::uint64_t>(cls),
                  options_.tenant);
    if (deadlineIn != 0) {
        // Arm before publishing: once the task is in the inbox another
        // worker may complete it (and cancel the deadline) right away.
        task->deadlineAt = task->submitNs + deadlineIn;
        task->deadlineId = w.shard->schedule(
            task->deadlineAt,
            reinterpret_cast<std::uint64_t>(task.get()));
        obs::emit(obs::EventKind::TimerArm, track, task->submitNs,
                  task->id, task->deadlineAt);
    }
    obs::emit(obs::EventKind::Dispatch, track, task->submitNs, task->id,
              static_cast<std::uint64_t>(cls));
    bool pushed;
    {
        // SpscRing is single-producer; serialise submitters per worker.
        std::lock_guard<std::mutex> lock(w.submitMutex);
        pushed = w.inbox.push(task.get());
    }
    if (!pushed) {
        cancelDeadline(task.get()); // backpressure: revoke and reject
        // Close the span opened by TaskSubmit above.
        obs::emitSpan(obs::EventKind::CancelRequest, track, hostNowNs(),
                      task->id);
        // Full-inbox backpressure is observable, never silent: a
        // first-class reject record plus a counter callers can poll.
        w.count(RuntimeCounter::RejectedFull);
        obs::emit(obs::EventKind::TaskReject, track, hostNowNs(), task->id,
                  static_cast<std::uint64_t>(cls), options_.tenant);
        return false;
    }
    task.release(); // ownership passed to the worker
    inFlight_.fetch_add(1, std::memory_order_relaxed);
    w.count(RuntimeCounter::Submitted);
    return true;
}

std::size_t
PreemptibleRuntime::drainInbox(int index, WorkerState &w)
{
    std::size_t moved = 0;
    TaskRecord *raw = nullptr;
    while (w.inbox.pop(raw)) {
        ++moved;
        if (!w.ready.push(raw)) {
            // Deque full (stolen backlog + burst): run it right now
            // rather than lose it.
            runTask(index, std::unique_ptr<TaskRecord>(raw));
        }
    }
    return moved;
}

TaskRecord *
PreemptibleRuntime::trySteal(int self)
{
    const int n = options_.nWorkers;
    if (!options_.stealing || n < 2)
        return nullptr;
    WorkerState &me = workerAt(self);

    // Draw a worker index other than self from this worker's stream.
    auto pick = [&]() {
        std::uint32_t r =
            me.rng.next() % static_cast<std::uint32_t>(n - 1);
        int v = static_cast<int>(r);
        return v >= self ? v + 1 : v;
    };

    std::array<TaskRecord *, kMaxStealBatch> spoils;
    for (int round = 0; round < options_.stealRounds; ++round) {
        me.count(RuntimeCounter::StealAttempts);

        // Two-choice: probe two distinct victims, raid the longer one.
        int v1 = pick();
        int victim = v1;
        if (n > 2) {
            std::uint32_t r =
                me.rng.next() % static_cast<std::uint32_t>(n - 2);
            int v2 = v1;
            for (int i = 0, seen = 0; i < n; ++i) {
                if (i == self || i == v1)
                    continue;
                if (seen++ == static_cast<int>(r)) {
                    v2 = i;
                    break;
                }
            }
            victim = workerAt(v1).ready.size() >= workerAt(v2).ready.size()
                         ? v1
                         : v2;
        }

        StealResult last = StealResult::Empty;
        std::size_t got = workerAt(victim).ready.stealBatch(
            spoils.data(), options_.stealBatch, &last);
        if (last == StealResult::Abort)
            me.count(RuntimeCounter::StealAborts);
        if (got == 0)
            continue;
        me.count(RuntimeCounter::StealHits, got);
        obs::emit(obs::EventKind::Steal,
                  static_cast<std::uint32_t>(self), hostNowNs(), got,
                  static_cast<std::uint64_t>(victim));
        for (std::size_t i = 0; i < got; ++i)
            migrateTask(spoils[i], self);
        // Keep the oldest (spoils[0]) to run now; stage the rest in
        // age order so the owner's oldest-first take runs them FIFO.
        for (std::size_t i = 1; i < got; ++i) {
            if (!me.ready.push(spoils[i]))
                runTask(self, std::unique_ptr<TaskRecord>(spoils[i]));
        }
        return spoils[0];
    }
    return nullptr;
}

void
PreemptibleRuntime::migrateTask(TaskRecord *task, int to)
{
    int from = static_cast<int>(task->owner);
    if (from == to)
        return;
    workerAt(to).count(RuntimeCounter::Migrations);
    obs::emitSpan(obs::EventKind::TaskMigrate,
                  static_cast<std::uint32_t>(to), hostNowNs(), task->id,
                  static_cast<std::uint64_t>(from),
                  static_cast<std::uint64_t>(to));
    if (task->deadlineId != 0) {
        // Move the pending deadline to the adopting worker's shard.
        // cancel() false means the fire callback already ran (fully,
        // under the shard mutex) — nothing left to move.
        if (workerAt(from).shard->cancel(task->deadlineId)) {
            task->deadlineId = workerAt(to).shard->schedule(
                task->deadlineAt, reinterpret_cast<std::uint64_t>(task));
        } else {
            task->deadlineId = 0;
        }
    }
    task->owner = static_cast<std::uint32_t>(to);
}

void
PreemptibleRuntime::cancelDeadline(TaskRecord *task)
{
    if (task->deadlineId == 0)
        return;
    workers_[task->owner]->shard->cancel(task->deadlineId);
    task->deadlineId = 0;
}

bool
PreemptibleRuntime::deadlineHopeless(const TaskRecord *task) const
{
    // Trust the wheel's verdict, but also consult the wall clock
    // directly: on an oversubscribed host the timer thread may be
    // starved past a deadline it has not yet marked.
    if (task->deadlineExpired.load(std::memory_order_acquire))
        return true;
    return task->deadlineAt != 0 && hostNowNs() >= task->deadlineAt;
}

void
PreemptibleRuntime::dropTask(int worker, std::unique_ptr<TaskRecord> task)
{
    cancelDeadline(task.get());
    workerAt(worker).count(RuntimeCounter::ExpiredDrops);
    TimeNs now = hostNowNs();
    obs::emitSpan(obs::EventKind::CancelRequest,
                  static_cast<std::uint32_t>(worker), now, task->id,
                  now - task->submitNs);
    inFlight_.fetch_sub(1, std::memory_order_release);
}

void
PreemptibleRuntime::workerMain(int index)
{
    WorkerContext &ctx = workerInit(timer_);
    WorkerState &w = workerAt(index);

    for (;;) {
        // Policy #1: new tasks take priority over preempted ones, and
        // run oldest first (FCFS, as in the simulator): the owner takes
        // from the top of its own deque, retrying a lost race.
        TaskRecord *raw = nullptr;
        StealResult took;
        while ((took = w.ready.steal(raw)) == StealResult::Abort) {
        }
        if (took == StealResult::Ok) {
            runTask(index, std::unique_ptr<TaskRecord>(raw));
            continue;
        }
        if (drainInbox(index, w) > 0)
            continue;
        std::unique_ptr<TaskRecord> parked;
        {
            std::lock_guard<std::mutex> lock(longMutex_);
            if (!longQueue_.empty()) {
                parked = std::move(longQueue_.front());
                longQueue_.pop_front();
            }
        }
        if (parked) {
            migrateTask(parked.get(), index);
            runTask(index, std::move(parked));
            continue;
        }
        // Steal before napping: placement skew must not idle us while
        // a peer drowns.
        if (TaskRecord *stolen = trySteal(index)) {
            runTask(index, std::unique_ptr<TaskRecord>(stolen));
            continue;
        }
        if (stopping_.load(std::memory_order_acquire) &&
            inFlight_.load(std::memory_order_acquire) == 0) {
            break;
        }
        if (options_.idleNap) {
            timespec ts{0, static_cast<long>(options_.idleNap)};
            ::nanosleep(&ts, nullptr);
        }
    }

    w.count(RuntimeCounter::StaleSignals, ctx.staleSignals);
    workerShutdown();
}

void
PreemptibleRuntime::runTask(int worker, std::unique_ptr<TaskRecord> task)
{
    FnStatus status;
    TimeNs slice = quantum_.load(std::memory_order_relaxed);
    std::uint32_t track = static_cast<std::uint32_t>(worker);
    WorkerState &w = workerAt(worker);
    bool fresh = !task->fn;
    if (options_.dropExpired && fresh && deadlineHopeless(task.get())) {
        // SLO already hopeless: never launch (section III-B).
        dropTask(worker, std::move(task));
        return;
    }
    // a1 = the armed quantum: span builders attribute segment time
    // past it to timer-fire lag rather than running time.
    obs::emitSpan(fresh ? obs::EventKind::Launch
                        : obs::EventKind::Resume,
                  track, hostNowNs(), task->id, 0, slice);
    w.currentTask.store(static_cast<std::int64_t>(task->id),
                        std::memory_order_relaxed);
    if (fresh) {
        task->fn = std::make_unique<PreemptibleFn>(task->body);
        status = fn_launch(*task->fn, slice);
    } else {
        status = fn_resume(*task->fn, slice);
    }
    w.currentTask.store(-1, std::memory_order_relaxed);

    if (status == FnStatus::Completed) {
        cancelDeadline(task.get());
        task->finishNs = hostNowNs();
        TimeNs sojourn = task->finishNs - task->submitNs;
        obs::emitSpan(obs::EventKind::Complete, track, task->finishNs,
                      task->id, sojourn,
                      static_cast<std::uint64_t>(task->cls));
        obs::recordTimerPerCore("runtime.sojourn_ns",
                                static_cast<unsigned>(worker), sojourn);
        {
            std::lock_guard<std::mutex> lock(w.latencyMutex);
            (task->cls == 0 ? w.lcLatency : w.beLatency).record(sojourn);
        }
        w.count(RuntimeCounter::Completed);
        inFlight_.fetch_sub(1, std::memory_order_release);
        return;
    }

    // Preempted or yielded.
    w.count(RuntimeCounter::Preemptions);
    TimeNs preemptNs = hostNowNs();
    w.lastPreemptNs.store(preemptNs, std::memory_order_relaxed);
    obs::emitSpan(obs::EventKind::Preempt, track, preemptNs, task->id,
                  slice);
    if (options_.dropExpired && deadlineHopeless(task.get())) {
        // Expired mid-run: release the stack instead of finishing.
        fn_cancel(*task->fn);
        dropTask(worker, std::move(task));
        return;
    }
    // Park on the shared long queue.
    std::lock_guard<std::mutex> lock(longMutex_);
    longQueue_.push_back(std::move(task));
}

void
PreemptibleRuntime::quiesce()
{
    while (inFlight_.load(std::memory_order_acquire) != 0) {
        timespec ts{0, 100000};
        ::nanosleep(&ts, nullptr);
    }
}

void
PreemptibleRuntime::shutdown()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    // Unregister first: returns only after any in-flight sampler pass
    // finished, so teardown never races a telemetry read.
    obs::unregisterTelemetrySampler(samplerId_);
    samplerId_ = 0;
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
    // Detach the wheel shards before stopping the timer so nothing
    // advances them once the runtime starts tearing down.
    for (auto &w : workers_)
        timer_.unregisterWheel(w->shard.get());
    timer_.shutdown();
    // Final pass into the process registry (all counts when no
    // publisher ran), so a --metrics-out dump lists every counter.
    if (obs::MetricsRegistry *registry = obs::metricsRegistry())
        sampleTelemetry(*registry);
}

RuntimeStats
PreemptibleRuntime::stats() const
{
    RuntimeStats s;
    for (const auto &w : workers_) {
        for (std::size_t c = 0; c < kNumRuntimeCounters; ++c)
            s.*kRuntimeCounters[c].field +=
                w->counts[c].value.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(w->latencyMutex);
        s.lcLatency.merge(w->lcLatency);
        s.beLatency.merge(w->beLatency);
    }
    return s;
}

double
PreemptibleRuntime::throughputRps() const
{
    TimeNs elapsed = hostNowNs() - startedAt_;
    if (elapsed == 0)
        return 0;
    return static_cast<double>(stats().completed) / nsToSec(elapsed);
}

std::size_t
PreemptibleRuntime::longQueueLen() const
{
    std::lock_guard<std::mutex> lock(longMutex_);
    return longQueue_.size();
}

void
PreemptibleRuntime::sampleTelemetry(obs::MetricsRegistry &r)
{
    TimeNs now = hostNowNs();
    auto age = [now](TimeNs then) {
        return then != 0 && now > then
                   ? static_cast<std::int64_t>(now - then)
                   : std::int64_t{-1};
    };

    auto gauge = [&](const char *base, int worker = -1) -> obs::Gauge & {
        return r.gauge(obs::scopedMetricName(base, options_.tenant, worker));
    };
    for (int i = 0; i < options_.nWorkers; ++i) {
        WorkerState &w = workerAt(i);
        gauge("runtime.worker.current_task", i)
            .set(w.currentTask.load(std::memory_order_relaxed));
        gauge("runtime.worker.deque_depth", i)
            .set(static_cast<std::int64_t>(w.ready.size()));
        gauge("runtime.worker.inbox_depth", i)
            .set(static_cast<std::int64_t>(w.inbox.size()));
        gauge("runtime.worker.shard_depth", i)
            .set(static_cast<std::int64_t>(w.shard->depth()));
        gauge("runtime.worker.last_preempt_age_ns", i)
            .set(age(w.lastPreemptNs.load(std::memory_order_relaxed)));
    }
    gauge("runtime.long_queue.depth")
        .set(static_cast<std::int64_t>(longQueueLen()));
    gauge("runtime.quantum_ns").set(static_cast<std::int64_t>(quantum()));
    gauge("runtime.in_flight")
        .set(static_cast<std::int64_t>(
            inFlight_.load(std::memory_order_relaxed)));
    gauge("runtime.timer.last_fire_age_ns").set(age(timer_.lastFireNs()));

    // Cumulative counts as true counters: each pass adds the delta
    // since the last one. Zero counts are published too, so every
    // scrape lists the same families.
    RuntimeStats s = stats();
    const std::uint64_t timerTotals[] = {
        timer_.firesTotal(), timer_.wheelFiresTotal(), timer_.scans()};
    for (std::size_t c = 0; c < published_.size(); ++c) {
        bool shard = c < kNumRuntimeCounters;
        std::size_t t = c - kNumRuntimeCounters; // past the shard counts
        std::uint64_t value =
            shard ? s.*kRuntimeCounters[c].field : timerTotals[t];
        std::string name = std::string("runtime.") +
                           (shard ? kRuntimeCounters[c].name
                                  : kTimerCounterNames[t]);
        r.counter(obs::scopedMetricName(name, options_.tenant))
            .add(value - published_[c]);
        published_[c] = value;
    }
}

} // namespace preempt::runtime
