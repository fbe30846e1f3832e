/**
 * @file
 * PreemptibleRuntime: a ready-to-use request-serving runtime built on
 * the fn_launch/fn_resume API — the real-host counterpart of the
 * scheduler evaluated in section V-C.
 *
 * Topology: one LibUtimer timer thread plus N worker threads. Tasks
 * submitted from any thread land in a per-worker inbox ring
 * (round-robin by default; submitTo() targets a specific worker) and
 * are moved by the owning worker onto its bounded lock-free
 * work-stealing deque. Workers implement the paper's scheduling
 * policy #1 (FCFS with preemption): tasks run with the current time
 * quantum; tasks that exceed their slice are preempted and parked on
 * a shared long queue, which workers drain when their own queues are
 * empty. An idle worker then steals from a peer — two victims are
 * chosen at random (seeded deterministically per worker) and a batch
 * is taken FIFO from the longer deque — and only naps when stealing
 * found nothing, so placement skew no longer serialises the runtime
 * behind one worker (the decentralised design of PAPER.md section IV,
 * in contrast to a Shinjuku-style central dispatcher).
 *
 * Per-task deadlines: each worker owns a WheelShard (a TimingWheel
 * advanced by the LibUtimer thread). A task submitted with a deadline
 * arms it in the target worker's shard; when the task changes workers
 * (steal or long-queue adoption) the pending deadline migrates to the
 * adopting worker's shard and still fires exactly once. The time
 * quantum can be changed at runtime (policy #2 / Algorithm 1 build on
 * this).
 */

#ifndef PREEMPT_PREEMPTIBLE_RUNTIME_HH
#define PREEMPT_PREEMPTIBLE_RUNTIME_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/histogram.hh"
#include "common/rng.hh"
#include "common/spsc_ring.hh"
#include "common/time.hh"
#include "preemptible/preemptible_fn.hh"
#include "preemptible/steal_deque.hh"
#include "preemptible/utimer.hh"

namespace preempt::obs {
class MetricsRegistry;
} // namespace preempt::obs

namespace preempt::control {
class AdmissionController;
} // namespace preempt::control

namespace preempt::runtime {

/** A unit of work submitted to the runtime. */
struct TaskRecord
{
    std::function<void()> body;
    int cls = 0;              ///< 0 = latency-critical, 1 = best-effort
    std::uint64_t id = 0;     ///< submission order, for tracing
    TimeNs submitNs = 0;
    TimeNs finishNs = 0;
    std::unique_ptr<PreemptibleFn> fn; ///< bound when first launched

    // Pending SLO deadline, owned by shard `owner` while armed. Only
    // the thread currently holding the task writes owner/deadlineId;
    // the timer thread's fire callback touches just the atomic flag.
    TimeNs deadlineAt = 0;    ///< absolute deadline ns (0 = none)
    std::uint64_t deadlineId = 0; ///< wheel timer id (0 = disarmed)
    std::uint32_t owner = 0;  ///< worker whose shard holds the deadline
    std::atomic<bool> deadlineExpired{false};
};

/** Aggregated runtime statistics: a view over the per-worker counter
 *  shards, summed (histograms merged) by PreemptibleRuntime::stats(). */
struct RuntimeStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejectedFull = 0;   ///< submits refused: inbox full
    std::uint64_t rejectedPolicy = 0; ///< submits refused: admission
    std::uint64_t preemptions = 0;
    std::uint64_t staleSignals = 0;
    std::uint64_t stealAttempts = 0; ///< steal rounds tried
    std::uint64_t stealHits = 0;     ///< tasks obtained by stealing
    std::uint64_t stealAborts = 0;   ///< steals lost to a CAS race
    std::uint64_t migrations = 0;    ///< tasks that changed workers
    std::uint64_t deadlineFires = 0; ///< per-task deadlines expired
    std::uint64_t expiredDrops = 0;  ///< tasks dropped past deadline
    LatencyHistogram lcLatency; ///< sojourn time of class-0 tasks (ns)
    LatencyHistogram beLatency; ///< sojourn time of class-1 tasks (ns)
};

/** The runtime's event counts; indexes kRuntimeCounters. */
enum class RuntimeCounter : std::size_t
{
    Submitted, Completed, RejectedFull, RejectedPolicy, Preemptions,
    StaleSignals, StealAttempts, StealHits, StealAborts, Migrations,
    DeadlineFires, ExpiredDrops
};

/** One count's RuntimeStats field and metric name, published as
 *  runtime.<name> (runtime.<name>/tN for tenant N). */
struct RuntimeCounterDef
{
    const char *name;
    std::uint64_t RuntimeStats::*field;
};

inline constexpr RuntimeCounterDef kRuntimeCounters[] = {
    {"submitted", &RuntimeStats::submitted},
    {"completed", &RuntimeStats::completed},
    {"rejected_full", &RuntimeStats::rejectedFull},
    {"rejected_policy", &RuntimeStats::rejectedPolicy},
    {"preempted", &RuntimeStats::preemptions},
    {"stale_signals", &RuntimeStats::staleSignals},
    {"steal.attempt", &RuntimeStats::stealAttempts},
    {"steal.hit", &RuntimeStats::stealHits},
    {"steal.abort", &RuntimeStats::stealAborts},
    {"migrations", &RuntimeStats::migrations},
    {"deadline.fires", &RuntimeStats::deadlineFires},
    {"expired_drops", &RuntimeStats::expiredDrops},
};

inline constexpr std::size_t kNumRuntimeCounters =
    static_cast<std::size_t>(RuntimeCounter::ExpiredDrops) + 1;
static_assert(std::size(kRuntimeCounters) == kNumRuntimeCounters);

/** The runtime object (one per process is typical). */
class PreemptibleRuntime
{
  public:
    struct Options
    {
        /** Worker threads. */
        int nWorkers = 2;

        /**
         * Initial time quantum. Host-scale defaults are milliseconds:
         * on a shared/1-CPU machine signal latency is far above the
         * 3 us a dedicated SPR timer core achieves.
         */
        TimeNs quantum = msToNs(4);

        /** Timer configuration (utimer_init). */
        UTimer::Options timer;

        /** Per-worker inbox and steal-deque capacity. */
        std::size_t queueCapacity = 4096;

        /** Worker idle nap after a fruitless steal round. */
        TimeNs idleNap = usToNs(100);

        /** Work stealing between workers (off = the pre-steal
         *  round-robin-only baseline measured by bench/micro_steal). */
        bool stealing = true;

        /** Max tasks taken per steal round (oldest first). */
        std::size_t stealBatch = 8;

        /** Two-choice victim rounds before giving up and napping. */
        int stealRounds = 2;

        /** Seed for the per-worker victim-selection streams. */
        std::uint64_t seed = 0x7265616c; // 'real'

        /** Per-worker deadline wheel shard geometry. */
        TimeNs wheelTick = usToNs(100);
        std::size_t wheelSlots = 256;
        int wheelLevels = 3;

        /**
         * Drop tasks whose deadline expired before completion: a
         * not-yet-started expired task is discarded instead of
         * launched, and an expired preempted task is fn_cancel'ed
         * (section III-B: release resources once the SLO is already
         * violated). Off by default.
         */
        bool dropExpired = false;

        /**
         * Tenant id stamped on every task's TaskSubmit trace record:
         * colocated runtimes (one per tenant, as in
         * bench/scalability_tenants) give each instance its own id so
         * the span collector attributes scheduler delay per tenant.
         */
        std::uint32_t tenant = 0;

        /**
         * Admission controller gating every submit (may be shared by
         * colocated runtimes — it keeps per-tenant state). A rejected
         * submission returns false before any task state is created,
         * emits a TaskReject trace record and counts in
         * RuntimeStats::rejectedPolicy. nullptr = no gating.
         */
        std::shared_ptr<control::AdmissionController> admission;
    };

    explicit PreemptibleRuntime(Options options);
    ~PreemptibleRuntime();

    PreemptibleRuntime(const PreemptibleRuntime &) = delete;
    PreemptibleRuntime &operator=(const PreemptibleRuntime &) = delete;

    /**
     * Submit a task (round-robin placement).
     * @param body work to run (may be preempted transparently)
     * @param cls  0 = latency-critical, 1 = best-effort
     * @return false when the dispatch queue is full (backpressure).
     */
    bool submit(std::function<void()> body, int cls = 0);

    /**
     * Submit to a specific worker's inbox, optionally with a relative
     * deadline armed in that worker's wheel shard.
     * @param deadlineIn 0 = no deadline, else ns from now; expiry sets
     *        the task's expired flag (and drops it under
     *        Options::dropExpired), firing exactly once even when the
     *        task is stolen to another worker.
     */
    bool submitTo(int worker, std::function<void()> body, int cls = 0,
                  TimeNs deadlineIn = 0);

    /** Block until every submitted task completed. */
    void quiesce();

    /** Stop workers (drains in-flight tasks first) and the timer. */
    void shutdown();

    /** Current preemption time slice. */
    TimeNs quantum() const { return quantum_.load(); }

    /** Change the time slice (takes effect on the next launch). */
    void setQuantum(TimeNs q) { quantum_.store(q); }

    /** Snapshot of the aggregated statistics. */
    RuntimeStats stats() const;

    /** Completions per second over the runtime's lifetime so far. */
    double throughputRps() const;

    /** Tasks on the shared long (preempted) queue. */
    std::size_t longQueueLen() const;

    int nWorkers() const { return options_.nWorkers; }

    /** The underlying timer (for fire statistics). */
    const UTimer &timer() const { return timer_; }

    /** A worker's deadline wheel shard (for depth inspection). */
    const WheelShard &wheelShard(int worker) const
    {
        return *workerAt(worker).shard;
    }

  private:
    /** Per-worker scheduling state. */
    struct WorkerState
    {
        WorkerState(std::size_t queueCapacity, std::uint64_t seed,
                    std::uint64_t stream)
            : inbox(queueCapacity), ready(queueCapacity),
              rng(seed, stream)
        {
        }

        /** Submitters push here (multi-producer via submitMutex). */
        SpscRing<TaskRecord *> inbox;
        std::mutex submitMutex;

        /** Owner takes the oldest task; idle peers steal FIFO batches. */
        StealDeque<TaskRecord *> ready;

        /** Victim-selection stream (deterministic per worker). */
        Rng rng;

        /** Deadline shard (advanced by the LibUtimer thread). */
        std::unique_ptr<WheelShard> shard;

        // Live scheduler state published by the telemetry sampler:
        // written by the owning worker, read from the publisher thread.
        std::atomic<std::int64_t> currentTask{-1}; ///< task id, -1 idle
        std::atomic<TimeNs> lastPreemptNs{0};      ///< last preempt time

        // Counter shard: this worker's share of every RuntimeStats
        // count, bumped by whichever thread acts for the worker. One
        // cache line per count, or a submitter's Submitted would bounce
        // the line the worker's Completed lives on.
        struct alignas(kCacheLine) PaddedCount
        {
            std::atomic<std::uint64_t> value{0};
        };
        std::array<PaddedCount, kNumRuntimeCounters> counts;
        mutable std::mutex latencyMutex; ///< guards the two histograms
        LatencyHistogram lcLatency;
        LatencyHistogram beLatency;

        void count(RuntimeCounter c, std::uint64_t n = 1)
        {
            counts[static_cast<std::size_t>(c)].value.fetch_add(
                n, std::memory_order_relaxed);
        }

        std::thread thread;
    };

    WorkerState &workerAt(int i) const
    {
        return *workers_[static_cast<std::size_t>(i)];
    }

    void workerMain(int index);

    /** Run one task until completion, preempting per quantum. */
    void runTask(int worker, std::unique_ptr<TaskRecord> task);

    /** Move inbox arrivals onto the ready deque. @return tasks moved. */
    std::size_t drainInbox(int index, WorkerState &w);

    /** Two-choice steal round; pushes spoils onto our deque.
     *  @return a task to run now, or nullptr. */
    TaskRecord *trySteal(int self);

    /** Re-home a task's pending deadline onto `to`'s shard. */
    void migrateTask(TaskRecord *task, int to);

    /** Revoke a task's pending deadline (pre-completion/drop). */
    void cancelDeadline(TaskRecord *task);

    /** Drop an expired task (dropExpired policy). */
    bool deadlineHopeless(const TaskRecord *task) const;
    void dropTask(int worker, std::unique_ptr<TaskRecord> task);

    /** Publish live per-worker scheduler state and every counter's
     *  delta into @p registry (publisher thread, then shutdown()). */
    void sampleTelemetry(obs::MetricsRegistry &registry);

    Options options_;
    UTimer timer_;
    std::atomic<TimeNs> quantum_;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> inFlight_{0};
    std::atomic<std::uint64_t> rrNext_{0};
    TimeNs startedAt_;

    /** Telemetry sampler registration (0 = none). */
    std::uint64_t samplerId_ = 0;

    /** UTimer totals, published after the kRuntimeCounters. */
    static constexpr const char *kTimerCounterNames[] = {
        "timer.fires", "timer.wheel_fires", "timer.scans"};

    /** Totals already pushed into registry counters, so each
     *  sampleTelemetry pass adds only the delta. */
    std::array<std::uint64_t,
               kNumRuntimeCounters + std::size(kTimerCounterNames)>
        published_{};

    std::vector<std::unique_ptr<WorkerState>> workers_;

    mutable std::mutex longMutex_;
    std::deque<std::unique_ptr<TaskRecord>> longQueue_;
};

} // namespace preempt::runtime

#endif // PREEMPT_PREEMPTIBLE_RUNTIME_HH
