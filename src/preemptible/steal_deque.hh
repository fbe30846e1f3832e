/**
 * @file
 * Bounded lock-free work-stealing deque (Chase-Lev) for the real
 * runtime's per-worker ready queues.
 *
 * One owner thread pushes at the bottom. Every consumer takes from
 * the top with steal(), FIFO: the owner taking its own oldest task
 * (the runtime dispatches oldest first) as well as any number of
 * thieves. There is no owner-side LIFO pop. The buffer is
 * fixed-capacity: push reports failure instead of growing, which is
 * the backpressure contract the runtime's submit path already exposes.
 *
 * Memory ordering follows the C11 formulation of Chase-Lev from
 * Lê/Pop/Cohen/Nardelli, "Correct and Efficient Work-Stealing for
 * Weak Memory Models" (PPoPP'13): a steal claims its element with a
 * seq_cst compare_exchange on top.
 *
 * Batched stealing (stealBatch) is a loop of single-element steals,
 * each its own CAS on top, so a batch stops at the first element lost
 * to another consumer and leaves a contended victim alone quickly.
 */

#ifndef PREEMPT_PREEMPTIBLE_STEAL_DEQUE_HH
#define PREEMPT_PREEMPTIBLE_STEAL_DEQUE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/spsc_ring.hh"

namespace preempt::runtime {

/** Outcome of a single steal attempt (for steal.attempt/hit/abort
 *  accounting in the runtime). */
enum class StealResult
{
    Ok,    ///< one element claimed
    Empty, ///< nothing to take
    Abort, ///< lost the CAS race to the owner or another thief
};

template <typename T>
class StealDeque
{
    // Elements are relaxed atomics: a thief speculatively reads a slot
    // before claiming it with the CAS on top, and that read may overlap
    // an owner push into the same slot after the buffer wrapped. The
    // torn value is discarded when the CAS fails, but the access itself
    // must be atomic to be race-free.
    static_assert(std::is_trivially_copyable_v<T>,
                  "steal deque elements are copied through relaxed "
                  "atomics");

  public:
    /** @param capacity_pow2 capacity; rounded up to a power of two. */
    explicit StealDeque(std::size_t capacity_pow2)
    {
        std::size_t cap = 1;
        while (cap < capacity_pow2)
            cap <<= 1;
        buf_ = std::vector<std::atomic<T>>(cap);
        mask_ = cap - 1;
    }

    StealDeque(const StealDeque &) = delete;
    StealDeque &operator=(const StealDeque &) = delete;

    /** Owner only: append at the bottom. Returns false when full. */
    bool
    push(T value)
    {
        std::int64_t b = bottom_.load(std::memory_order_relaxed);
        std::int64_t t = top_.load(std::memory_order_acquire);
        if (b - t > static_cast<std::int64_t>(mask_))
            return false; // full
        buf_[static_cast<std::size_t>(b) & mask_].store(
            value, std::memory_order_relaxed);
        // Publish the element before publishing the new bottom.
        bottom_.store(b + 1, std::memory_order_release);
        return true;
    }

    /** Any thread: claim the oldest element (FIFO). */
    StealResult
    steal(T &out)
    {
        std::int64_t t = top_.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        std::int64_t b = bottom_.load(std::memory_order_acquire);
        if (t >= b)
            return StealResult::Empty;
        T value = buf_[static_cast<std::size_t>(t) & mask_].load(
            std::memory_order_relaxed);
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
            return StealResult::Abort;
        out = value;
        return StealResult::Ok;
    }

    /**
     * Thief: claim up to max_n of the oldest elements, oldest first.
     * Stops at the first Empty or Abort so a contended victim is left
     * alone quickly. @return elements written to out[0..n).
     */
    std::size_t
    stealBatch(T *out, std::size_t max_n, StealResult *last = nullptr)
    {
        std::size_t n = 0;
        StealResult r = StealResult::Empty;
        while (n < max_n) {
            r = steal(out[n]);
            if (r != StealResult::Ok)
                break;
            ++n;
        }
        if (last)
            *last = r;
        return n;
    }

    /** Approximate occupancy (exact only from the owner thread). */
    std::size_t
    size() const
    {
        std::int64_t b = bottom_.load(std::memory_order_acquire);
        std::int64_t t = top_.load(std::memory_order_acquire);
        return b > t ? static_cast<std::size_t>(b - t) : 0;
    }

    bool empty() const { return size() == 0; }

    std::size_t capacity() const { return mask_ + 1; }

  private:
    std::vector<std::atomic<T>> buf_;
    std::size_t mask_;
    alignas(kCacheLine) std::atomic<std::int64_t> top_{0};
    alignas(kCacheLine) std::atomic<std::int64_t> bottom_{0};
};

} // namespace preempt::runtime

#endif // PREEMPT_PREEMPTIBLE_STEAL_DEQUE_HH
