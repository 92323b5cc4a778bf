/**
 * @file
 * Base class of the coherent memory system.
 *
 * Owns the per-tile L1/L2 arrays, writeback buffers and requester-side
 * MSHRs; implements the local access path (hit timing, miss issue,
 * fills, evictions), message plumbing over the mesh, a peer's answers
 * (forwardCopy, invalidateAndAck) and the home's writeback handling.
 * The directory and snooping engines subclass it and implement the
 * miss protocol's ordering; makeMemSys() picks the one
 * Config::protocol selects.
 *
 * Modeling conventions (see DESIGN.md):
 *  - One outstanding demand access per core (in-order cores).
 *  - Owned-line evictions go through a writeback buffer; the buffer
 *    entry answers external requests until the home tile acknowledges
 *    the writeback, which makes evictions race-free.
 *  - A logical "version" number stands in for line data; writers bump
 *    a global counter, data messages carry versions, and the checker
 *    verifies single-writer/multiple-reader and freshness invariants.
 */

#ifndef SPP_COHERENCE_MEM_SYS_HH
#define SPP_COHERENCE_MEM_SYS_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "coherence/line_lock.hh"
#include "coherence/messages.hh"
#include "common/config.hh"
#include "common/core_set.hh"
#include "common/hash.hh"
#include "common/pool.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "event/event_queue.hh"
#include "mem/address_map.hh"
#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "noc/mesh.hh"
#include "predict/predictor.hh"
#include "predict/sharing_filter.hh"

namespace spp {

class ProtocolChecker;

/**
 * Hook between message injection and delivery scheduling. When
 * attached (MemSys::setDeliveryScheduler), every protocol message
 * still pays its full NoC cost — Mesh::inject computes the arrival
 * tick and accounts traffic exactly as in a normal run — but instead
 * of the mesh scheduling the delivery, the hook receives (arrival
 * tick, message, delivery action) and becomes responsible for running
 * the action at that tick. The model checker uses this to permute the
 * delivery order of messages that become ready at the same tick; a
 * null hook (the default) keeps the one-branch-per-send fast path.
 */
class DeliveryScheduler
{
  public:
    virtual ~DeliveryScheduler() = default;

    /**
     * Take ownership of delivering @p m: run @p deliver exactly once
     * at tick @p arrive (never earlier). @p m aliases the pooled
     * message slot, which stays valid until @p deliver returns.
     */
    virtual void onMessage(Tick arrive, const Msg &m,
                           EventQueue::Action deliver) = 0;
};

struct AccessOutcome;

/**
 * Observer of resolved predictor decisions and injected coherence
 * traffic (the attribution profiler). Purely observational: a sink
 * never changes protocol behavior, timing or statistics, so a run
 * with one attached is event-for-event identical to an unobserved
 * run. Detached (the default) each hook site is one untaken branch.
 */
class AttributionSink
{
  public:
    virtual ~AttributionSink() = default;

    /**
     * A miss finished and its outcome is final. @p wasted_bytes is
     * the predicted-request waste this resolution charged to the
     * predWasteBytes counters (0 when no prediction was attempted).
     */
    virtual void onMissResolved(CoreId core, Addr line,
                                const AccessOutcome &out,
                                std::uint64_t wasted_bytes) = 0;

    /**
     * A protocol message entered the NoC. @p requester is the core
     * whose transaction the message belongs to (the message's
     * requester field, falling back to the sender for traffic that
     * carries none, e.g. writebacks).
     */
    virtual void onMessageSent(CoreId requester, Addr line,
                               unsigned bytes) = 0;
};

/** Everything a caller learns about one finished memory access. */
struct AccessOutcome
{
    bool l1Hit = false;
    bool l2Hit = false;
    bool isWrite = false;
    bool upgrade = false;       ///< Write hit on a shared line.
    bool communicating = false; ///< A remote cache was involved.
    bool offChip = false;       ///< Memory supplied the data.
    CoreSet servicedBy;         ///< Remote caches that serviced us.
    Prediction pred;            ///< Prediction attempted (may be none).
    bool predSufficient = false;///< Prediction fully serviced the miss.
    Tick issueTick = 0;
    Tick completeTick = 0;
    std::uint64_t dataVersion = 0;

    bool miss() const { return !l1Hit && !l2Hit; }
    Tick latency() const { return completeTick - issueTick; }
};

/**
 * Where a MemSys reports each access it completes: one per machine,
 * bound at construction. CmpSystem resumes the core's thread; the
 * protocol tests record the outcome. accessDone() runs synchronously
 * inside the completing event, after the core's MSHR is released, so
 * it may issue the core's next access.
 */
class AccessCompletion
{
  public:
    virtual ~AccessCompletion() = default;
    virtual void accessDone(CoreId core, const AccessOutcome &out) = 0;
};

/** Aggregate statistics of one MemSys over a run. */
struct MemSysStats
{
    Counter accesses;
    Counter l1Hits;
    Counter l2Hits;
    Counter misses;             ///< Coherence transactions started.
    Counter upgradeMisses;
    Counter communicatingMisses;
    Counter offChipMisses;
    Counter writebacks;
    Counter snoopLookups;       ///< Peer tag lookups from externals.

    Counter predictionsAttempted;
    Counter predictionsSuppressed; ///< Filtered by the sharing filter.
    Counter predictionsOnCommunicating;
    Counter predictionsOnNonComm;   ///< Wasted bandwidth (Fig. 9).
    Counter predictionsSufficient;
    /** Wasted predicted-request bytes (request + Nack/Ack) split by
     * whether the miss was communicating (Fig. 9 attribution). */
    Counter predWasteBytesComm;
    Counter predWasteBytesNonComm;
    /** Sufficient predictions by PredSource (Fig. 7 breakdown). */
    std::array<std::uint64_t, 7> sufficientBySource{};

    Average missLatency;
    Average commMissLatency;
    Average nonCommMissLatency;
    Average hitLatency;
    Average actualTargets;      ///< |servicedBy| per comm. miss.
    Average predictedTargets;   ///< |pred| per attempted prediction.
};

/**
 * Abstract coherent memory system: local caches + a miss protocol.
 */
class MemSys
{
  public:
    MemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
           DestinationPredictor *predictor, AccessCompletion &completion);
    virtual ~MemSys();

    MemSys(const MemSys &) = delete;
    MemSys &operator=(const MemSys &) = delete;

    /**
     * Issue a load or store from @p core; its outcome goes to the
     * machine's AccessCompletion. At most one outstanding access per
     * core.
     */
    void access(CoreId core, Addr addr, bool is_write, Pc pc);

    const AddressMap &map() const { return map_; }
    const Config &config() const { return cfg_; }
    const MemSysStats &stats() const { return stats_; }
    EventQueue &eventQueue() { return eq_; }
    Mesh &mesh() { return mesh_; }

    /** Coherence-message pool counters (leak tests, simbench). */
    const PoolStats &msgPoolStats() const { return msg_pool_.stats(); }

    /** Writeback-buffer pool counters, summed across cores. */
    PoolStats
    wbPoolStats() const
    {
        PoolStats sum;
        for (const auto &buf : wb_buffer_)
            sum += buf.stats();
        return sum;
    }

    /** In-flight transaction-table pool counters (protocol engines
     * with pooled transaction state override this). */
    virtual PoolStats txnPoolStats() const { return {}; }

    /** The sharing filter, when enabled (tests/benches). */
    const SharingFilter *sharingFilter() const
    {
        return filter_ ? &*filter_ : nullptr;
    }

    /** The DRAM model, when enabled (tests/benches). */
    const DramModel *dram() const { return dram_ ? &*dram_ : nullptr; }

    CacheArray &l2(CoreId c) { return *l2_[c]; }
    const CacheArray &l2(CoreId c) const { return *l2_[c]; }
    const CacheArray &l1(CoreId c) const { return *l1_[c]; }

    /** No MSHRs, writebacks or locked lines outstanding. */
    bool drained() const;

    /**
     * Transactions that resumed their core but have not fully
     * drained yet (broadcast/multicast lingering entries). drained()
     * covers them indirectly via the line locks they hold; the
     * protocol checker asserts both independently.
     */
    virtual std::size_t outstandingTxns() const { return 0; }

    /**
     * Attach (or detach, with nullptr) an invariant checker that
     * observes every sendMsg() and delivery. At most one; the caller
     * keeps ownership and must outlive the attachment.
     */
    void setChecker(ProtocolChecker *checker) { checker_ = checker; }

    /**
     * Attach (or detach, with nullptr) a delivery scheduler that
     * takes over running delivery actions (model checking). At most
     * one; the caller keeps ownership and must outlive the
     * attachment. Attach before any traffic flows: messages already
     * scheduled through the event queue are not re-routed.
     */
    void
    setDeliveryScheduler(DeliveryScheduler *s)
    {
        delivery_scheduler_ = s;
    }

    /**
     * Attach (or detach, with nullptr) an attribution sink observing
     * every resolved miss and injected message. At most one; the
     * caller keeps ownership and must outlive the attachment.
     */
    void setAttributionSink(AttributionSink *s) { attribution_ = s; }

    /**
     * Fold every behavior-relevant piece of coherence state into
     * @p h: cache contents, writeback buffers, MSHRs, line locks,
     * memory versions and the version/transaction counters.
     * Subclasses extend it with their protocol-engine state
     * (directory entries, in-flight transaction tables, lingering
     * transactions). Statistics are deliberately excluded — they
     * never feed back into protocol decisions — and predictor
     * internals are excluded by design (see DESIGN.md §11: they
     * steer only *which* requests are predicted, not whether the
     * protocol is allowed to behave as observed).
     */
    virtual void hashState(StateHasher &h) const;

    /** Describe outstanding MSHRs/writebacks/locks (deadlock digs). */
    virtual std::string dumpOutstanding() const;

    /**
     * Verify coherence invariants across all tiles: at most one
     * owner/writer per line, no writable copy coexisting with other
     * copies, version agreement among clean copies. Panics on
     * violation. Call only when drained.
     */
    void checkCoherence() const;

    /**
     * Verify the home directory against the caches (engines that keep
     * one: directory, multicast's verification directory; see
     * HomeDirectory::check). Panics on violation. Call only when
     * drained.
     */
    virtual void checkDirectory() const {}

  protected:
    /** Requester-side miss state. One per core (in-order cores). */
    struct Mshr
    {
        CoreId core = invalidCore;
        Addr line = 0;
        bool isWrite = false;
        bool hadLine = false;       ///< Valid copy at issue (upgrade).
        Pc pc = 0;
        std::uint64_t txn = 0;
        Tick issueTick = 0;
        AccessOutcome out;

        // Protocol progress.
        bool needData = true;
        bool dataReceived = false;
        bool dataFromPeer = false;
        CoreSet mustAck;            ///< Write: acks to collect.
        CoreSet ackedBy;
        CoreSet nackedBy;
        CoreSet retried;            ///< Predicted targets re-invalidated.
        unsigned predRespPending = 0;
        bool predFailedSent = false;
        unsigned peerResponses = 0; ///< Snooping: responses collected.
        bool peerHadCopy = false;   ///< Snooping: some peer had line.
        bool ordered = false;       ///< The home ordered the miss
                                    ///< (grant, or broadcast fabric).
        bool coreResumed = false;   ///< Snooping: core already resumed.
        CoreId dataSource = invalidCore;
        Mesif fillState = Mesif::invalid;
        std::uint64_t version = 0;
    };

    /** Writeback buffer entry for an evicted owned line. */
    struct WbEntry
    {
        Mesif state = Mesif::invalid;
        std::uint64_t version = 0;
        Pc lastPc = 0;
        std::uint64_t txn = 0;      ///< Lock key of the wb transaction.
        bool noticed = false;       ///< wbNotice sent (lock held).
        /** Accesses stalled until this writeback drains. */
        std::vector<EventQueue::Action> stalled;

        /** Pool recycling: reset fields, keep stalled's capacity. */
        void
        poolReset()
        {
            state = Mesif::invalid;
            version = 0;
            lastPc = 0;
            txn = 0;
            noticed = false;
            stalled.clear();
        }
    };

    /** What a peer knows about a line (cache or writeback buffer). */
    struct PeerView
    {
        bool valid = false;
        bool inBuffer = false;
        bool noticed = false;   ///< Buffer entry already written back.
        Mesif state = Mesif::invalid;
        std::uint64_t version = 0;
        Pc lastPc = 0;
    };

    /** Start the protocol transaction for a prepared MSHR. */
    virtual void startMiss(Mshr &m) = 0;

    /** Dispatch a delivered protocol message. */
    virtual void handleMsg(const Msg &m) = 0;

    /** Send @p m over the mesh; delivery invokes handleMsg(). */
    void sendMsg(const Msg &m);

    /** Send @p m after @p extra_delay local processing cycles. */
    void sendMsgAfter(Tick extra_delay, const Msg &m);

    /** A @p type message from @p src to @p dst about @p key's
     * transaction on @p line. */
    static Msg txnMsg(MsgType type, Addr line, CoreId src, CoreId dst,
                      const TxnKey &key);

    /** Packet size of a message, by data/control class. */
    unsigned msgBytes(const Msg &m) const;

    /** Traffic class for bandwidth attribution. */
    TrafficClass msgClass(const Msg &m) const;

    /** Inspect a line at @p core: L2 first, then writeback buffer. */
    PeerView peerView(CoreId core, Addr line) const;

    /** Count a snoop-induced tag lookup at @p core. */
    void countSnoop() { ++stats_.snoopLookups; }

    /** Downgrade @p core's copy (cache or buffer) to Shared. */
    void downgradeToShared(CoreId core, Addr line);

    /** Invalidate @p core's copy (cache, L1 and buffer). */
    void invalidateAt(CoreId core, Addr line);

    /**
     * The peer @p req is addressed to answers it from its forwardable
     * copy @p v: a dirty copy is deposited at the home (dirUpdate),
     * the copy drops to Shared, and clean-shared data goes to the
     * requester after the L2 data read. The reply to a predicted
     * request (predRead) is itself marked predicted.
     */
    void forwardCopy(const Msg &req, const PeerView &v);

    /**
     * The peer @p req is addressed to invalidates its copy @p v (if
     * any) and acks to the requester; an owner's ack carries the data
     * (ownerAck). The reply to a predicted request (predWrite) is
     * itself marked predicted.
     */
    void invalidateAndAck(const Msg &req, const PeerView &v);

    /**
     * Install @p line at @p core with @p state; handles victim
     * eviction (writeback buffer + notice) and fills L1 alongside.
     */
    void fillLine(CoreId core, Addr line, Mesif state, Pc pc,
                  std::uint64_t version);

    /** Complete the MSHR of @p core: outcome, training,
     * onCompleteMiss(), then free the MSHR and resume the core. */
    void completeMiss(Mshr &m);

    /**
     * Finalize the outcome of @p m (fill, stats, predictor training)
     * without freeing the MSHR or resuming the core; protocols that
     * resume the core before the transaction fully drains (snooping)
     * call it directly.
     */
    void finishOutcome(Mshr &m);

    /** The per-core MSHR, if any. */
    Mshr *mshrFor(CoreId core, Addr line);

    /**
     * Fold a data-bearing response into @p m, tolerating duplicates.
     * Data can legally arrive twice for one transaction — e.g. an
     * owner handoff (ackInv with ownerAck) racing a memory/directory
     * data message for the same miss — so rather than asserting
     * single delivery, keep the freshest version; on a version tie,
     * prefer peer provenance (a peer copy is at least as fresh as
     * memory and keeps the 2-hop attribution). @return true when
     * @p msg 's payload was kept.
     */
    bool absorbData(Mshr &m, const Msg &msg);

    /** Allocate the next global data version (writers). */
    std::uint64_t nextVersion() { return ++version_counter_; }

    /** Memory's committed version of @p line. */
    std::uint64_t memVersion(Addr line) const;

    /** Demand-fetch latency at @p line's home controller, now. */
    Tick memAccessLatency(Addr line);

    /** Raise memory's version (max-merge; versions are monotonic). */
    void depositMemVersion(Addr line, std::uint64_t version);

    /** Hook: called right before completeMiss finalizes stats. */
    virtual void onCompleteMiss(Mshr &m) { (void)m; }

    /** Train predictors about an external request at @p observer. */
    void trainExternalAt(CoreId observer, Addr line, CoreId requester,
                         bool is_write);

    /** Fold one MSHR into @p h (hashState helpers). */
    static void hashMshr(StateHasher &h, const Mshr &m);

    /** Fold a CoreSet into @p h. */
    static void hashCoreSet(StateHasher &h, const CoreSet &s);

    const Config &cfg_;
    EventQueue &eq_;
    Mesh &mesh_;
    AddressMap map_;
    DestinationPredictor *predictor_;
    AccessCompletion &completion_;

    unsigned n_cores_;
    std::optional<SharingFilter> filter_;
    std::optional<DramModel> dram_;
    std::vector<std::unique_ptr<CacheArray>> l1_;
    std::vector<std::unique_ptr<CacheArray>> l2_;
    std::vector<PooledMap<WbEntry>> wb_buffer_;
    std::vector<std::optional<Mshr>> mshr_;
    LineLockTable locks_;
    MemSysStats stats_;

    std::uint64_t version_counter_ = 0;
    std::uint64_t txn_counter_ = 0;
    PooledMap<std::uint64_t> mem_version_;
    std::uint64_t outstanding_wb_ = 0;
    ProtocolChecker *checker_ = nullptr;
    DeliveryScheduler *delivery_scheduler_ = nullptr;
    AttributionSink *attribution_ = nullptr;

    /**
     * Freelist of in-flight coherence messages. A message occupies a
     * slot from send until its delivery handler returns, so the
     * steady-state send path performs no allocation; nested sends
     * from inside a handler simply take other slots.
     */
    Pool<Msg> msg_pool_;

    /** Send an already-pooled message; releases @p slot on delivery
     * after handleMsg() returns. */
    void sendPooled(Msg *slot);

    friend class ProtocolChecker;

  private:
    /** First phase of access(), counted once by access(): the
     * writeback-buffer check and the L1 lookup. An access stalled on
     * the writeback buffer re-enters here with its issue tick. */
    void accessL1(CoreId core, Addr addr, bool is_write, Pc pc,
                  Tick issue_tick);

    /** Second phase of access(): L2 lookup after L1 miss. */
    void accessL2(CoreId core, Addr addr, bool is_write, Pc pc,
                  Tick issue_tick);

    /** Start the writeback transaction for @p line at @p core. */
    void startWriteback(CoreId core, Addr line);

  protected:
    /** Apply wbNotice @p m at the home: directory cleanup
     * (onWriteback), the dirty-data deposit, the wbAck, and the line
     * lock's release. */
    void applyWriteback(const Msg &m);

    /** Subclass hook: clear directory owner/sharer state on wb. */
    virtual void onWriteback(CoreId /*core*/, Addr /*line*/) {}

    /** Finish a writeback at the evictor (wbAck received). */
    void finishWriteback(CoreId core, Addr line);
};

/**
 * Build the memory system @p cfg selects: DirectoryMemSys for
 * directory/predicted, the snooping engine for broadcast/multicast.
 * @p predictor (may be null) drives the predicted protocols and
 * @p completion receives every finished access; the caller keeps
 * ownership of both.
 */
std::unique_ptr<MemSys> makeMemSys(const Config &cfg, EventQueue &eq,
                                   Mesh &mesh,
                                   DestinationPredictor *predictor,
                                   AccessCompletion &completion);

} // namespace spp

#endif // SPP_COHERENCE_MEM_SYS_HH
