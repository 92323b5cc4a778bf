/**
 * @file
 * Per-line transaction serialization at the home tile.
 *
 * All three coherence schemes serialize transactions on the same
 * cache line through its home node:
 *
 *  - The directory protocol uses the lock as its natural blocking
 *    MSHR: one transaction per line at a time, later requests queue.
 *  - The broadcast protocol uses it to model the total order an
 *    ordered interconnect provides (the paper's assumption).
 *  - The prediction extension uses it to resolve races between
 *    predicted direct requests and in-flight transactions: a peer
 *    accepts a predicted request only if the line is free or already
 *    locked by the same transaction; otherwise it Nacks and the
 *    requester falls back to the directory path (Section 4.5's
 *    "recover from mispredictions").
 *
 * The lock itself is a zero-latency model artifact standing in for
 * the handshake/retry machinery a real implementation would use; all
 * *observable* costs (messages, hops, serialization, queueing time)
 * are still paid through the mesh.
 */

#ifndef SPP_COHERENCE_LINE_LOCK_HH
#define SPP_COHERENCE_LINE_LOCK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/pool.hh"
#include "common/types.hh"
#include "event/event_queue.hh"

namespace spp {

/** Identity of one coherence transaction. */
struct TxnKey
{
    CoreId requester = invalidCore;
    std::uint64_t txn = 0;

    bool operator==(const TxnKey &) const = default;
};

/**
 * Home-side per-line lock table with a FIFO wait queue. Entries live
 * in a PooledMap: a lock taken and released on every miss reuses a
 * pool slot, and the slot keeps its wait queue's capacity, so the
 * miss path allocates nothing once the table has warmed up. A queue
 * drops its consumed prefix once that is half of it, so it holds at
 * most about twice the waiters it ever had at once.
 */
class LineLockTable
{
  public:
    /** Queued-waiter resume closure; inline storage, no per-waiter
     * allocation (cf. EventQueue::Action). */
    using Continuation = EventQueue::Action;

    /** Is @p line currently locked (by anyone)? */
    bool
    isLocked(Addr line) const
    {
        return locks_.contains(line);
    }

    /** Is @p line locked by a transaction other than @p key? */
    bool
    isLockedByOther(Addr line, const TxnKey &key) const
    {
        const Entry *e = locks_.find(line);
        return e != nullptr && !(e->holder == key);
    }

    /**
     * Try to acquire @p line for @p key.
     * @return true if the caller now holds the lock (either newly
     * acquired or already held by the same transaction); false if the
     * line is held by another transaction, in which case @p waiter is
     * queued and will run when the lock becomes available *and has
     * been re-acquired for it*.
     */
    bool
    acquireOrQueue(Addr line, const TxnKey &key, Continuation waiter)
    {
        Entry &e = findOrLock(line, key);
        if (e.holder == key)
            return true;
        e.waiters.push_back(Waiter{key, std::move(waiter)});
        return false;
    }

    /**
     * Acquire without queuing; @return false if held by another.
     * Used by peers deciding whether to accept a predicted request.
     */
    bool
    tryAcquire(Addr line, const TxnKey &key)
    {
        return findOrLock(line, key).holder == key;
    }

    /**
     * Release @p line, which must be held by @p key. If waiters are
     * queued, the head waiter becomes the new holder and its
     * continuation runs synchronously (so no other acquire can slip
     * in between release and hand-off).
     */
    void
    release(Addr line, const TxnKey &key)
    {
        Entry *e = locks_.find(line);
        SPP_ASSERT(e != nullptr && e->holder == key,
                   "release of line {} not held by core {} txn {}",
                   line, key.requester, key.txn);
        if (!e->hasWaiters()) {
            locks_.erase(line);
            return;
        }
        Waiter next = std::move(e->waiters[e->head]);
        if (++e->head == e->waiters.size()) {
            // Drained: keep the vector's capacity for the next
            // contention burst on this line.
            e->waiters.clear();
            e->head = 0;
        } else if (e->head * 2 >= e->waiters.size()) {
            // Half consumed: drop the consumed prefix, so contention
            // that never drains holds about twice its waiters, not
            // one entry per hand-off.
            e->waiters.erase(e->waiters.begin(),
                             e->waiters.begin() +
                                 static_cast<std::ptrdiff_t>(e->head));
            e->head = 0;
        }
        e->holder = next.key;
        next.resume();
    }

    /** Number of lines currently locked (for drain checks). */
    std::size_t lockedLines() const { return locks_.size(); }

    /**
     * Fold holders and ordered wait queues into @p h (model-checker
     * state hashing). Map iteration order must not leak into the
     * digest, so lines fold commutatively; each line's queue folds in
     * FIFO order because hand-off order is part of the state.
     */
    void
    hashInto(StateHasher &h) const
    {
        locks_.forEach([&h](Addr line, const Entry &e) {
            StateHasher sub;
            sub.mix(line);
            sub.mix(e.holder.requester);
            sub.mix(e.holder.txn);
            for (std::size_t i = e.head; i < e.waiters.size(); ++i) {
                sub.mix(e.waiters[i].key.requester);
                sub.mix(e.waiters[i].key.txn);
            }
            h.mixUnordered(sub.value());
        });
    }

    /** Describe all held locks (deadlock diagnostics). */
    template <typename Out>
    void
    dump(Out &&emit) const
    {
        locks_.forEach([&emit](Addr line, const Entry &e) {
            emit(line, e.holder, e.waiterCount());
        });
    }

  private:
    struct Waiter
    {
        TxnKey key;
        Continuation resume;
    };

    /** FIFO wait queue drained via a head cursor (vector instead of
     * deque: no allocation on construction, capacity reuse). Entries
     * before head are consumed; release() erases them when the queue
     * drains or when they are at least half of it. */
    struct Entry
    {
        TxnKey holder;
        std::vector<Waiter> waiters;
        std::size_t head = 0;

        bool hasWaiters() const { return head < waiters.size(); }
        std::size_t waiterCount() const
        {
            return waiters.size() - head;
        }

        /** Pool reset that keeps the wait queue's capacity. */
        void
        poolReset()
        {
            holder = {};
            waiters.clear();
            head = 0;
        }
    };

    /** The entry of @p line, locked for @p key if it was free. */
    Entry &
    findOrLock(Addr line, const TxnKey &key)
    {
        if (Entry *e = locks_.find(line))
            return *e;
        Entry &e = locks_.insert(line);
        e.holder = key;
        return e;
    }

    PooledMap<Entry> locks_;
};

} // namespace spp

#endif // SPP_COHERENCE_LINE_LOCK_HH
