/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled for the same time fire in scheduling order (a
 * monotonically increasing sequence number breaks ties), so a fixed
 * seed always reproduces the same simulation.
 *
 * Internals (see DESIGN.md "Simulator internals"): event state lives
 * in a generation-tagged slot arena and the ready order in an implicit
 * 4-ary min-heap of plain {when, seq, id} records. An EventId encodes
 * (slot index | generation), so cancel() and the fired-check are O(1)
 * array operations — no hashing, and no tombstone set that can grow
 * without bound. Callbacks are stored in-slot with small-buffer
 * optimisation, so the common captures (a core id, a request pointer)
 * never touch the allocator.
 */

#ifndef PREEMPT_SIM_EVENT_QUEUE_HH
#define PREEMPT_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/time.hh"

namespace preempt::sim {

/**
 * Opaque handle used to cancel a scheduled event.
 *
 * Encodes (slot index + 1) in the upper 32 bits and the slot's
 * generation in the lower 32. The generation is bumped every time a
 * slot is freed (event fired or cancelled), so a handle to a dead
 * event never aliases the slot's next occupant.
 */
using EventId = std::uint64_t;

/** Invalid handle constant. */
inline constexpr EventId kInvalidEvent = 0;

/**
 * Type-erased move-only callable with small-buffer inline storage.
 * Callables up to kInlineSize bytes (and max_align_t alignment) live
 * inside the owning slot; larger ones fall back to the heap.
 */
class EventCallback
{
  public:
    /** Covers a std::function plus the typical small lambda capture. */
    static constexpr std::size_t kInlineSize = 48;

    EventCallback() noexcept : ops_(nullptr) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>>>
    EventCallback(F &&f) : ops_(nullptr) // NOLINT: implicit by design
    {
        emplace(std::forward<F>(f));
    }

    EventCallback(EventCallback &&other) noexcept : ops_(nullptr)
    {
        takeFrom(other);
    }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            takeFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /**
     * Replace the held callable with one constructed from `f` right
     * here, with no intermediate relocation. A null std::function or
     * function pointer leaves the callback empty, so the queue can
     * reject it (matches the old std::function check).
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        static_assert(!std::is_same_v<D, EventCallback>,
                      "move-assign an EventCallback instead");
        reset();
        if constexpr (std::is_constructible_v<bool, const D &>) {
            if (!static_cast<bool>(f))
                return;
        }
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &InlineOps<D>::ops;
        } else {
            D *p = new D(std::forward<F>(f));
            std::memcpy(buf_, &p, sizeof(p));
            ops_ = &HeapOps<D>::ops;
        }
    }

    /** Destroy the held callable (if any). */
    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    void operator()(TimeNs t) { ops_->invoke(buf_, t); }

  private:
    /**
     * Per-type operations. `relocate` and `destroy` are null for an
     * inline callable that is trivially copyable and trivially
     * destructible (every hot-path model lambda: `[this, id]`,
     * `[this, &req]`, ...): moving it is a memcpy of the buffer and
     * destroying it is nothing.
     */
    struct Ops
    {
        void (*invoke)(void *, TimeNs);
        /** Move-construct into dst, destroy src. */
        void (*relocate)(void *, void *) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= kInlineSize &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    static constexpr bool
    triviallyRelocatable()
    {
        return std::is_trivially_copyable_v<D> &&
               std::is_trivially_destructible_v<D>;
    }

    template <typename D> struct InlineOps
    {
        static D *
        get(void *buf)
        {
            return std::launder(reinterpret_cast<D *>(buf));
        }
        static void invoke(void *buf, TimeNs t) { (*get(buf))(t); }
        static void
        relocate(void *src, void *dst) noexcept
        {
            D *s = get(src);
            ::new (dst) D(std::move(*s));
            s->~D();
        }
        static void destroy(void *buf) noexcept { get(buf)->~D(); }
        static constexpr bool kTrivial = triviallyRelocatable<D>();
        static constexpr Ops ops = {&invoke, kTrivial ? nullptr : &relocate,
                                    kTrivial ? nullptr : &destroy};
    };

    template <typename D> struct HeapOps
    {
        static D *
        get(void *buf)
        {
            D *p;
            std::memcpy(&p, buf, sizeof(p));
            return p;
        }
        static void invoke(void *buf, TimeNs t) { (*get(buf))(t); }
        static void
        relocate(void *src, void *dst) noexcept
        {
            std::memcpy(dst, src, sizeof(D *));
        }
        static void destroy(void *buf) noexcept { delete get(buf); }
        static constexpr Ops ops = {&invoke, &relocate, &destroy};
    };

    /** Move other's callable into this (empty) callback. */
    void
    takeFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->relocate)
                ops_->relocate(other.buf_, buf_);
            else
                std::memcpy(buf_, other.buf_, kInlineSize);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineSize];
    const Ops *ops_;
};

/** Min-heap of timed callbacks with O(1) cancellation. */
class EventQueue
{
  public:
    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule a callback at an absolute time.
     *
     * @param when absolute simulated time; must be >= the time of the
     *             event currently firing.
     * @param fn   callback, invoked with the firing time.
     * @return a handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(TimeNs when, F &&fn)
    {
        // Construct the callable straight into its slot; the slot goes
        // back to the free list if that throws or yields nothing.
        std::uint32_t index = takeSlot();
        EventCallback &cb = slots_[index].fn;
        try {
            cb.emplace(std::forward<F>(fn));
        } catch (...) {
            freeSlots_.push_back(index);
            throw;
        }
        if (!cb) {
            freeSlots_.push_back(index);
            panic("scheduling an empty callback");
        }
        return arm(index, when);
    }

    /**
     * Cancel a previously scheduled event. Cancelling an event that
     * already fired (or was already cancelled) is a harmless no-op,
     * which lets runtimes invalidate stale preemption/completion
     * events without bookkeeping races.
     *
     * @return true when a live event was actually cancelled.
     */
    bool cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Time of the earliest live event (kTimeNever when empty). */
    TimeNs nextTime() const;

    /**
     * Pop the earliest live event if it is due at or before `limit`:
     * its slot is freed (so cancelling it from inside its own callback
     * is a no-op) and its callback moved into `fn`, which the caller
     * invokes with `when`. One call per event: the simulator's loop.
     *
     * @return false, leaving `when` and `fn` untouched, when no live
     *         event is due by `limit`.
     */
    bool popDue(TimeNs limit, TimeNs &when, EventCallback &fn);

    /**
     * Pop and run the earliest event.
     * @return the time at which the event fired.
     */
    TimeNs runOne();

    /** Number of live (non-cancelled) events. */
    std::size_t size() const { return live_; }

    /** Total events ever scheduled (for stats / debugging). */
    std::uint64_t scheduledCount() const { return scheduled_; }

  private:
    /** Arena slot: holds one event's liveness tag and its callback. */
    struct Slot
    {
        std::uint32_t gen = 0;
        bool armed = false;
        EventCallback fn;
    };

    /**
     * 4-ary-heap record. `seq` is the global schedule order and breaks
     * same-time ties, preserving the seed-deterministic FIFO firing
     * order of the original implementation.
     */
    struct HeapEntry
    {
        TimeNs when;
        std::uint64_t seq;
        EventId id;
    };

    static constexpr EventId
    makeId(std::uint32_t index, std::uint32_t gen)
    {
        return ((static_cast<EventId>(index) + 1) << 32) | gen;
    }

    /** Slot index, or an out-of-range value for garbage handles. */
    static constexpr std::uint64_t idIndex(EventId id)
    {
        return (id >> 32) - 1;
    }

    static constexpr std::uint32_t idGen(EventId id)
    {
        return static_cast<std::uint32_t>(id);
    }

    /** An unarmed slot index, from the free list or a new slot. */
    std::uint32_t takeSlot();

    /** Arm a filled slot and push its heap record. */
    EventId arm(std::uint32_t index, TimeNs when);

    /** Mark a slot dead: bump its generation and recycle the index. */
    void freeSlot(std::uint64_t index);

    /** True when the entry still refers to a live (armed) slot. */
    bool liveEntry(const HeapEntry &e) const;

    /** Discard heap records whose event was cancelled. */
    void skipDead() const;

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    mutable std::vector<HeapEntry> heap_;
    std::uint64_t scheduled_;
    std::size_t live_;
};

} // namespace preempt::sim

#endif // PREEMPT_SIM_EVENT_QUEUE_HH
