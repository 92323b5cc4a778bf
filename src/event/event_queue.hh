/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives a run. Events are type-erased callables
 * scheduled at absolute ticks; same-tick events fire in scheduling
 * order (FIFO), which makes protocol behaviour deterministic.
 */

#ifndef SPP_EVENT_EVENT_QUEUE_HH
#define SPP_EVENT_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_fn.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace spp {

/**
 * Calendar queue over (tick, seq, action) triples: a ring of
 * per-tick FIFO slots covering the near-time window
 * [curTick(), curTick() + windowSlots), with a binary-heap overflow
 * for far-future events. Nearly every event in a coherence run is a
 * short latency hop (cache/dir/link delays of a few dozen ticks), so
 * the common schedule() links a pooled node at a slot's tail and the
 * common step() runs the current slot's head in place — both O(1).
 * Nodes come from 64-node chunks that never move and return to a
 * LIFO freelist, so the queue holds about as many nodes as events
 * were ever pending at once and, in steady state, allocates nothing.
 * Actions are InlineFn, so a closure lives and runs inside its node.
 *
 * Determinism contract (same as the old pure heap): events fire in
 * ascending (when, seq) order, seq being global insertion order, so
 * same-tick events run FIFO. The two structures never hold entries
 * that interleave incorrectly: a far entry for tick T can only be
 * inserted while T lies beyond the window, and a slot entry for T
 * only while T lies inside it; the window base (curTick()) never
 * moves backwards, so every heap entry for T predates — and has a
 * smaller seq than — every slot entry for T. Draining heap entries
 * due at T before the slot FIFO at T therefore reproduces the exact
 * global order without ever migrating entries between structures.
 *
 * Extracting an event must fully remove it from its container
 * *before* running it, because the action may schedule new events:
 * the heap is managed explicitly (std::pop_heap over a vector), and
 * a running action's node is unlinked from its slot and stays off
 * the freelist until the action returns, so no schedule() made by
 * the action can reuse it.
 */
class EventQueue
{
  public:
    /**
     * Inline capacity for event closures. The fattest kernel closure
     * is the L2-miss continuation (core, line, pc and issue-time
     * context: 56 B); capacity 88 makes a node 112 B. Anything bigger
     * fails to compile in schedule() rather than silently regressing
     * to heap allocation.
     */
    static constexpr std::size_t actionCapacity = 88;

    using Action = InlineFn<actionCapacity>;

    /** Current simulated time. */
    Tick curTick() const { return cur_tick_; }

    /** Schedule @p action at absolute time @p when (>= curTick()). */
    void
    schedule(Tick when, Action action)
    {
        SPP_ASSERT(when >= cur_tick_,
                   "schedule in the past: {} < {}", when, cur_tick_);
        if (when - cur_tick_ < windowSlots) {
            const std::size_t idx = when & windowMask;
            Node *n = takeNode();
            n->action = std::move(action);
            Slot &slot = slots_[idx];
            if (slot.head == nullptr)
                slot.head = n;
            else
                slot.tail->next = n;
            slot.tail = n;
            occupancy_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        } else {
            far_.push_back(
                FarEntry{when, next_seq_, std::move(action)});
            std::push_heap(far_.begin(), far_.end(), FarLater{});
        }
        ++next_seq_;
        ++pending_;
    }

    /** Schedule @p action @p delay ticks from now. */
    void
    scheduleAfter(Tick delay, Action action)
    {
        schedule(cur_tick_ + delay, std::move(action));
    }

    bool empty() const { return pending_ == 0; }

    std::size_t pending() const { return pending_; }

    /** Tick of the next pending event; queue must be non-empty. */
    Tick
    nextEventTick() const
    {
        SPP_ASSERT(pending_ != 0, "peek on empty event queue");
        const Tick near = nearNextTick();
        if (!far_.empty() && far_.front().when < near)
            return far_.front().when;
        return near;
    }

    /** Execute the single next event; queue must be non-empty. */
    void
    step()
    {
        SPP_ASSERT(pending_ != 0, "step on empty event queue");
        const Tick now = nextEventTick();
        cur_tick_ = now;

        --pending_;
        // Far entries due now were all scheduled before any slot
        // entry for this tick existed (see class comment), so they
        // run first; among themselves the heap yields (when, seq)
        // order.
        if (!far_.empty() && far_.front().when == now) {
            std::pop_heap(far_.begin(), far_.end(), FarLater{});
            Action action = std::move(far_.back().action);
            far_.pop_back();
            action();
        } else {
            const std::size_t idx = now & windowMask;
            Slot &slot = slots_[idx];
            Node *n = slot.head;
            slot.head = n->next;
            // Drained: clear the occupancy bit. The action below may
            // schedule back into this same slot; that re-sets it.
            if (slot.head == nullptr)
                occupancy_[idx >> 6] &=
                    ~(std::uint64_t{1} << (idx & 63));
            n->action();
            n->action.reset();
            n->next = free_;
            free_ = n;
        }
        ++executed_;
    }

    /**
     * Run until the queue drains or curTick() would exceed @p limit
     * (0 = no limit). @return true if the queue drained.
     */
    bool
    run(Tick limit = 0)
    {
        while (pending_ != 0) {
            if (limit != 0 && nextEventTick() > limit)
                return false;
            step();
        }
        return true;
    }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Enumerate the due tick of every pending event as
     * fn(Tick when, std::size_t count), in ascending tick order, each
     * tick once: far-heap and slot events due at the same tick are
     * counted together. Event actions themselves are opaque; this
     * exposes exactly the queue's *timing* profile, which the model
     * checker folds into its state hash (two states with different
     * in-flight event schedules must not be identified, and two with
     * the same must fold alike). O(windowSlots + pending log pending)
     * — a model-checking path, not a hot path.
     */
    template <typename Fn>
    void
    forEachPendingTick(Fn fn) const
    {
        // Every pending event's due tick, sorted, then counted per
        // tick: the heap's internal layout depends on insertion
        // history and must not leak into enumeration order.
        std::vector<Tick> ticks;
        ticks.reserve(pending_);
        for (const FarEntry &e : far_)
            ticks.push_back(e.when);
        const std::size_t base = cur_tick_ & windowMask;
        for (std::size_t idx = 0; idx < windowSlots; ++idx)
            for (const Node *e = slots_[idx].head; e != nullptr;
                 e = e->next)
                ticks.push_back(cur_tick_ + ((idx - base) & windowMask));
        std::sort(ticks.begin(), ticks.end());
        for (std::size_t i = 0; i < ticks.size();) {
            std::size_t j = i + 1;
            while (j < ticks.size() && ticks[j] == ticks[i])
                ++j;
            fn(ticks[i], j - i);
            i = j;
        }
    }

    /** Near-time window width in ticks (and slots). */
    static constexpr std::size_t windowSlots = 1024;

  private:
    static constexpr std::uint64_t windowMask = windowSlots - 1;
    static constexpr std::size_t occupancyWords = windowSlots / 64;
    static constexpr std::size_t chunkNodes = 64;

    /** One pending event: its closure, run in place, and the next
     * node of its slot's FIFO (or of the freelist). */
    struct Node
    {
        Action action;
        Node *next = nullptr;
    };

    /** One tick's FIFO through Node::next; empty when head is null
     * (tail is then stale). */
    struct Slot
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    /** A node off the freelist, carving a new chunk when it is
     * empty; its action is empty and its next is null. */
    Node *
    takeNode()
    {
        if (free_ == nullptr) [[unlikely]]
            addChunk();
        Node *n = free_;
        free_ = n->next;
        n->next = nullptr;
        return n;
    }

    /** Carve a chunk of nodes onto the empty freelist. Out of line:
     * inlined into every schedule() it ran snoop16 2% slower. */
    void addChunk();

    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        Action action;
    };

    /** Heap comparator: true when @p a fires after @p b, so the
     * earliest (when, seq) sits at far_.front(). */
    struct FarLater
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            return a.when != b.when ? a.when > b.when
                                    : a.seq > b.seq;
        }
    };

    /**
     * Tick of the first occupied slot at or after curTick();
     * maxTick when the window is empty. Scans the occupancy bitmap
     * circularly starting at the slot of curTick(); because the
     * window is exactly windowSlots wide, the first set bit in
     * circular order is the earliest due tick.
     */
    Tick
    nearNextTick() const
    {
        const std::size_t base = cur_tick_ & windowMask;
        const std::size_t base_word = base >> 6;
        // Head of the base word: bits at or after the base slot.
        std::uint64_t w = occupancy_[base_word] &
            (~std::uint64_t{0} << (base & 63));
        if (w != 0)
            return slotTick(base_word, w, base);
        // Following words, wrapping; the scan ends back at the base
        // word, where only the bits before the base slot remain.
        for (std::size_t k = 1; k <= occupancyWords; ++k) {
            const std::size_t word =
                (base_word + k) & (occupancyWords - 1);
            w = occupancy_[word];
            if (k == occupancyWords)
                w &= (std::uint64_t{1} << (base & 63)) - 1;
            if (w != 0)
                return slotTick(word, w, base);
        }
        return maxTick;
    }

    /** Due tick of the lowest set bit of @p w (a non-zero occupancy
     * word), scanning circularly from the @p base slot. */
    Tick
    slotTick(std::size_t word, std::uint64_t w,
             std::size_t base) const
    {
        const std::size_t idx = (word << 6) +
            static_cast<std::size_t>(std::countr_zero(w));
        return cur_tick_ + ((idx - base) & windowMask);
    }

    std::array<Slot, windowSlots> slots_;
    std::array<std::uint64_t, occupancyWords> occupancy_{};
    /** Every node, pending or free: destroying them destroys each
     * pending action once. A moved-from queue may only be destroyed. */
    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *free_ = nullptr;
    std::vector<FarEntry> far_;
    std::size_t pending_ = 0;
    Tick cur_tick_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace spp

#endif // SPP_EVENT_EVENT_QUEUE_HH
