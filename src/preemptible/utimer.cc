#include "preemptible/utimer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "preemptible/hosttime.hh"

namespace preempt::runtime {

UTimer::~UTimer()
{
    shutdown();
}

void
UTimer::init(Options options)
{
    fatal_if(running_.load(), "utimer_init called twice");
    options_ = options;
    fatal_if(options_.maxThreads <= 0, "utimer needs maxThreads > 0");
    slots_ = std::vector<DeadlineSlot>(
        static_cast<std::size_t>(options_.maxThreads));
    running_.store(true);
    thread_ = std::thread([this] { timerLoop(); });
}

void
UTimer::shutdown()
{
    if (!running_.exchange(false))
        return;
    if (thread_.joinable())
        thread_.join();
}

DeadlineSlot *
UTimer::registerThread()
{
    fatal_if(!running_.load(), "utimer_register before utimer_init");
    for (auto &slot : slots_) {
        bool expected = false;
        if (slot.inUse.compare_exchange_strong(expected, true)) {
            slot.tid.store(::pthread_self(),
                           std::memory_order_release);
            slot.deadline.store(kTimeNever, std::memory_order_release);
            return &slot;
        }
    }
    fatal("utimer slot table exhausted (maxThreads=%d)",
          options_.maxThreads);
}

void
UTimer::unregisterThread(DeadlineSlot *slot)
{
    panic_if(!slot, "unregistering a null slot");
    slot->deadline.store(kTimeNever, std::memory_order_release);
    slot->inUse.store(false, std::memory_order_release);
}

void
UTimer::registerWheel(WheelShard *shard)
{
    panic_if(!shard, "registering a null wheel shard");
    std::lock_guard<std::mutex> lock(wheelsMutex_);
    wheels_.push_back(shard);
}

void
UTimer::unregisterWheel(WheelShard *shard)
{
    // Taking wheelsMutex_ also waits out any advance pass that already
    // iterates the list, so the caller may free the shard on return.
    std::lock_guard<std::mutex> lock(wheelsMutex_);
    std::erase(wheels_, shard);
}

void
UTimer::timerLoop()
{
    while (running_.load(std::memory_order_relaxed)) {
        scans_.fetch_add(1, std::memory_order_relaxed);
        TimeNs now = hostNowNs();
        TimeNs soonest = kTimeNever;
        for (auto &slot : slots_) {
            if (!slot.inUse.load(std::memory_order_acquire))
                continue;
            TimeNs dl = slot.deadline.load(std::memory_order_acquire);
            if (dl == kTimeNever)
                continue;
            if (dl <= now) {
                // Claim the expiry so it fires exactly once, then
                // notify the thread.
                if (slot.deadline.compare_exchange_strong(dl, kTimeNever)) {
                    slot.fires.fetch_add(1, std::memory_order_relaxed);
                    firesTotal_.fetch_add(1, std::memory_order_relaxed);
                    lastFireNs_.store(now, std::memory_order_relaxed);
                    // a0 = lateness of the scan past the deadline; the
                    // slot index stands in for the target thread.
                    obs::emit(obs::EventKind::TimerFire,
                              static_cast<std::uint32_t>(&slot -
                                                         slots_.data()),
                              now, firesTotal_.load(
                                       std::memory_order_relaxed),
                              now - std::min(dl, now));
                    ::pthread_kill(
                        slot.tid.load(std::memory_order_acquire),
                        options_.signo);
                }
            } else {
                soonest = std::min(soonest, dl);
            }
        }

        // Advance every registered per-worker wheel shard and fold its
        // next-fire hint into the nap decision.
        {
            std::lock_guard<std::mutex> lock(wheelsMutex_);
            for (WheelShard *shard : wheels_) {
                std::uint64_t before = shard->fires();
                shard->advance(now);
                wheelFiresTotal_.fetch_add(shard->fires() - before,
                                           std::memory_order_relaxed);
                soonest = std::min(soonest, shard->earliestHint());
            }
        }

        if (soonest == kTimeNever) {
            // Nothing armed: nap to keep small hosts responsive.
            if (options_.idleSleep) {
                timespec ts{0, static_cast<long>(options_.idleSleep)};
                ::nanosleep(&ts, nullptr);
            }
            continue;
        }
        TimeNs gap = soonest > now ? soonest - now : 0;
        if (gap > options_.spinThreshold && options_.idleSleep) {
            TimeNs nap = std::min(gap - options_.spinThreshold,
                                  options_.idleSleep);
            timespec ts{static_cast<time_t>(nap / 1000000000ULL),
                        static_cast<long>(nap % 1000000000ULL)};
            ::nanosleep(&ts, nullptr);
        }
        // Otherwise: spin straight into the next scan for precision.
    }
}

UTimer &
globalUTimer()
{
    static UTimer timer;
    return timer;
}

} // namespace preempt::runtime
