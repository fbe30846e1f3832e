#include "sim/event_queue.hh"

#include <algorithm>

#include "obs/trace.hh"

namespace preempt::sim {

namespace {

// Queue-depth sampling period (power of two): every 1024th schedule
// emits one obs::EventQueueDepth record. Folded into the existing
// scheduled_ increment so the disabled path pays one test-and-branch.
constexpr std::uint64_t kDepthSampleMask = 1023;

// Implicit 4-ary min-heap over (when, seq). A wider node halves the
// tree depth versus a binary heap and keeps the four children of a
// node in adjacent cache lines, which is where a discrete-event
// simulator spends its comparisons.
constexpr std::size_t kArity = 4;

template <typename E>
bool
before(const E &a, const E &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    return a.seq < b.seq;
}

template <typename E>
void
siftUp(std::vector<E> &heap, std::size_t i)
{
    E item = std::move(heap[i]);
    while (i > 0) {
        std::size_t parent = (i - 1) / kArity;
        if (!before(item, heap[parent]))
            break;
        heap[i] = std::move(heap[parent]);
        i = parent;
    }
    heap[i] = std::move(item);
}

template <typename E>
void
siftDown(std::vector<E> &heap, std::size_t i)
{
    const std::size_t n = heap.size();
    E item = std::move(heap[i]);
    for (;;) {
        std::size_t first = i * kArity + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        std::size_t last = std::min(first + kArity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap[c], heap[best]))
                best = c;
        }
        if (!before(heap[best], item))
            break;
        heap[i] = std::move(heap[best]);
        i = best;
    }
    heap[i] = std::move(item);
}

template <typename E>
void
popTop(std::vector<E> &heap)
{
    heap.front() = std::move(heap.back());
    heap.pop_back();
    if (!heap.empty())
        siftDown(heap, 0);
}

} // namespace

EventQueue::EventQueue() : scheduled_(0), live_(0)
{
}

std::uint32_t
EventQueue::takeSlot()
{
    if (!freeSlots_.empty()) {
        std::uint32_t index = freeSlots_.back();
        freeSlots_.pop_back();
        return index;
    }
    panic_if(slots_.size() >= 0xffffffffull, "event slot arena exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventId
EventQueue::arm(std::uint32_t index, TimeNs when)
{
    Slot &slot = slots_[index];
    slot.armed = true;
    ++scheduled_;
    ++live_;
    EventId id = makeId(index, slot.gen);
    heap_.push_back(HeapEntry{when, scheduled_, id});
    siftUp(heap_, heap_.size() - 1);
    if ((scheduled_ & kDepthSampleMask) == 0) [[unlikely]]
        obs::emit(obs::EventKind::EventQueueDepth, 0, when, scheduled_,
                  live_, heap_.size());
    return id;
}

void
EventQueue::freeSlot(std::uint64_t index)
{
    Slot &slot = slots_[index];
    slot.armed = false;
    slot.fn.reset();
    // The bump invalidates every outstanding handle to this slot; a
    // stale cancel() or heap record sees a generation mismatch. (A
    // single slot would need 2^32 reuses while one stale record waits
    // to produce a false match.)
    ++slot.gen;
    freeSlots_.push_back(static_cast<std::uint32_t>(index));
    --live_;
}

bool
EventQueue::liveEntry(const HeapEntry &e) const
{
    std::uint64_t index = idIndex(e.id);
    if (index >= slots_.size())
        return false;
    const Slot &slot = slots_[index];
    return slot.armed && slot.gen == idGen(e.id);
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kInvalidEvent)
        return false;
    std::uint64_t index = idIndex(id);
    if (index >= slots_.size())
        return false;
    Slot &slot = slots_[index];
    // Fired and cancelled slots were freed under a new generation, so
    // a stale handle can neither double-cancel nor hit a reused slot.
    if (!slot.armed || slot.gen != idGen(id))
        return false;
    freeSlot(index);
    // The heap record stays behind as a cheap tombstone; skipDead()
    // drops it when it reaches the top.
    return true;
}

void
EventQueue::skipDead() const
{
    while (!heap_.empty() && !liveEntry(heap_.front()))
        popTop(heap_);
}

TimeNs
EventQueue::nextTime() const
{
    skipDead();
    return heap_.empty() ? kTimeNever : heap_.front().when;
}

bool
EventQueue::popDue(TimeNs limit, TimeNs &when, EventCallback &fn)
{
    skipDead();
    if (heap_.empty() || heap_.front().when > limit)
        return false;
    HeapEntry top = heap_.front();
    popTop(heap_);

    std::uint64_t index = idIndex(top.id);
    // Free the slot before the caller invokes the callback so the
    // callback can schedule new events (possibly reusing this slot)
    // and so cancelling the firing event from inside its own callback
    // is the documented no-op.
    fn = std::move(slots_[index].fn);
    freeSlot(index);
    when = top.when;
    return true;
}

TimeNs
EventQueue::runOne()
{
    TimeNs when = 0;
    EventCallback fn;
    if (!popDue(kTimeNever, when, fn))
        panic("runOne() on an empty event queue");
    fn(when);
    return when;
}

} // namespace preempt::sim
