/**
 * @file
 * Simulator-level synchronization runtime.
 *
 * Implements barriers, locks, condition variables and join over the
 * event queue, fires sync-point notifications to registered
 * listeners (the paper's "expose synchronization primitives to the
 * hardware"), and assigns each synchronization object a shared-memory
 * address so callers can model the coherence traffic the primitive
 * itself generates.
 */

#ifndef SPP_SYNC_SYNC_MANAGER_HH
#define SPP_SYNC_SYNC_MANAGER_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "event/event_queue.hh"
#include "sync/sync_types.hh"

namespace spp {

/** Sync statistics of one run. */
struct SyncStats
{
    Counter syncPoints;
    Counter barriersReleased;
    Counter lockAcquisitions;
    Counter lockContended;      ///< Acquisitions that had to wait.
    Counter wakeups;
};

/**
 * Barrier / lock / condvar runtime with sync-point notification.
 */
class SyncManager
{
  public:
    /** A blocked thread's wakeup, scheduled when it may proceed. */
    using Action = EventQueue::Action;

    SyncManager(const Config &cfg, EventQueue &eq, Addr sync_base);

    /** Register a sync-point observer. */
    void addListener(SyncListener *l) { listeners_.push_back(l); }

    // --- Addresses of synchronization variables ---
    Addr barrierAddr(unsigned id) const;
    Addr barrierGenAddr(unsigned id) const;
    Addr lockAddr(unsigned id) const;
    Addr condAddr(unsigned id) const;

    /**
     * Arrive at barrier @p id with @p participants total threads.
     * The last arriver releases everyone; each released thread gets a
     * sync-point notification (type barrier, staticId @p static_id)
     * before @p on_release runs.
     */
    void barrierArrive(CoreId core, unsigned id, unsigned participants,
                       std::uint64_t static_id, Action on_release);

    /**
     * Acquire lock @p id. When granted, a sync-point (type lock,
     * staticId = lockAddr(id), prevHolder = last releaser) fires and
     * @p on_granted runs.
     */
    void lockAcquire(CoreId core, unsigned id, Action on_granted);

    /**
     * Release lock @p id; fires the unlock sync-point and hands the
     * lock to the next waiter (if any).
     */
    void lockRelease(CoreId core, unsigned id);

    /** Block until condition @p id is signalled. */
    void condWait(CoreId core, unsigned id, std::uint64_t static_id,
                  Action on_wake);

    /** Wake one waiter of condition @p id (no-op if none). */
    void condSignal(CoreId core, unsigned id, std::uint64_t static_id);

    /** Wake all waiters of condition @p id. */
    void condBroadcast(CoreId core, unsigned id,
                       std::uint64_t static_id);

    /**
     * Counting semaphore post (condvar + predicate idiom): wakes one
     * waiter or banks a token, so wakeups are never lost.
     */
    void semPost(CoreId core, unsigned id, std::uint64_t static_id);

    /** Semaphore wait: immediate if a token is banked. */
    void semWait(CoreId core, unsigned id, std::uint64_t static_id,
                 Action on_wake);

    /** Mark @p core's thread as finished. */
    void threadDone(CoreId core);

    /** Wait until all threads except @p core are done (join). */
    void joinAll(CoreId core, std::uint64_t static_id,
                 Action on_all_done);

    /** Core that released lock @p id last (invalidCore if never). */
    CoreId lastReleaser(unsigned id) const;

    /** Fire a sync-point notification to all listeners. */
    void notify(CoreId core, SyncType type, std::uint64_t static_id,
                CoreId prev_holder = invalidCore);

    const SyncStats &stats() const { return stats_; }

    /** Threads that called threadDone so far. */
    unsigned doneCount() const { return done_count_; }

  private:
    struct Barrier
    {
        unsigned arrived = 0;
        std::vector<std::pair<CoreId, Action>> waiters;
        std::uint64_t staticId = 0;
    };

    struct Lock
    {
        bool held = false;
        CoreId holder = invalidCore;
        CoreId lastReleaser = invalidCore;
        std::deque<std::pair<CoreId, Action>> waiters;
    };

    struct Cond
    {
        std::deque<std::pair<CoreId, std::pair<std::uint64_t, Action>>>
            waiters;
    };

    struct Sem
    {
        unsigned tokens = 0;
        std::deque<std::pair<CoreId, std::pair<std::uint64_t, Action>>>
            waiters;
    };

    void grantLock(CoreId core, unsigned id, Action on_granted);

    const Config &cfg_;
    EventQueue &eq_;
    Addr sync_base_;
    std::vector<SyncListener *> listeners_;
    std::unordered_map<unsigned, Barrier> barriers_;
    std::unordered_map<unsigned, Lock> locks_;
    std::unordered_map<unsigned, Cond> conds_;
    std::unordered_map<unsigned, Sem> sems_;
    /** Per-core occurrence counters of static sync-point IDs. */
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>
        dyn_counts_;
    unsigned done_count_ = 0;
    std::vector<std::pair<CoreId, std::pair<std::uint64_t, Action>>>
        joiners_;
    SyncStats stats_;
};

} // namespace spp

#endif // SPP_SYNC_SYNC_MANAGER_HH
