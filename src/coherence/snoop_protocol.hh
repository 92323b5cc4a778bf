/**
 * @file
 * Snooping coherence: one engine, two home-side policies.
 *
 * A miss acquires its line's home lock (the ordering point, with
 * zero-latency arbitration; see line_lock.hh), snoops a target set of
 * peers and collects one response per snooped peer. The owner answers
 * cache-to-cache with data (2-hop miss), sharers invalidate on
 * writes, and every other target sends a snoop response. The core
 * resumes as soon as its data (and, for writes, the ordering) is
 * settled; the transaction then lingers until every response
 * arrived and finally unblocks the home. Waiting while another miss
 * holds the line is paid for real.
 *
 * Only the home side differs per protocol (the virtual hooks of
 * SnoopMemSys):
 *  - BroadcastMemSys (Protocol::broadcast), the paper's
 *    latency-ideal, bandwidth-maximal endpoint. Every peer is
 *    snooped. The request is ordered after a zero-load trip to the
 *    home, which fetches memory speculatively; an owner's cancel
 *    stops the fetch, and memory data counts only once all n-1 snoop
 *    responses are in.
 *  - MulticastMemSys (Protocol::multicast), the paper's second use
 *    case ("In snooping protocols, prediction relaxes the high
 *    bandwidth requirements by replacing broadcast with multicast"),
 *    after Bilir et al. [8]. The requester snoops the predicted set,
 *    or every peer when the prediction is empty. A memory-side
 *    verification directory at the home grants the request, names
 *    the ack set, snoops the nodes the mask missed and supplies
 *    authoritative memory data. A correct prediction costs
 *    |predicted| + 1 request messages instead of n-1.
 */

#ifndef SPP_COHERENCE_SNOOP_PROTOCOL_HH
#define SPP_COHERENCE_SNOOP_PROTOCOL_HH

#include "coherence/home_directory.hh"
#include "coherence/mem_sys.hh"

namespace spp {

/** The snooping engine shared by broadcast and multicast. */
class SnoopMemSys : public MemSys
{
  public:
    std::string dumpOutstanding() const override;

    std::size_t outstandingTxns() const override { return lingering_.size(); }

    PoolStats txnPoolStats() const override { return lingering_.stats(); }

    void hashState(StateHasher &h) const override;

    /**
     * Late memory-data messages dropped because their transaction had
     * fully retired: broadcast's speculative fetch losing the race
     * against the owner's response, or multicast home data losing it
     * against an evicted owner's writeback buffer. Correctness-
     * relevant ordering windows: the model checker's race-witness
     * tests assert exploration actually drives executions into them.
     */
    std::uint64_t lateDataDrops() const { return late_data_drops_; }

  protected:
    using MemSys::MemSys;

    // --- Home-side policy -------------------------------------------

    /** Order miss @p m (home lock held) and snoop its targets. */
    virtual void launch(Mshr &m) = 0;

    /** Snoop @p m reached peer m.dst, before its tag lookup. */
    virtual void onSnoopArrival(const Msg &m) = 0;

    /** A peer answers snoop @p m with owned data after @p lat
     * cycles (dirty reads deposit at the home instead). */
    virtual void onOwnerAnswer(CoreId /*self*/, const Msg & /*m*/,
                               Tick /*lat*/) {}

    /** The home's memory read of @p line for @p key finished;
     * @return whether its data still goes to the requester. */
    virtual bool claimMemoryData(Addr /*line*/, const TxnKey & /*key*/)
    {
        return true;
    }

    /** Whether memory data held by @p m may complete it. */
    virtual bool memoryDataUsable(const Mshr & /*m*/) const
    {
        return true;
    }

    /** Fill state of a read miss @p m completed by memory data. */
    virtual Mesif memoryFill(const Mshr &m) const { return m.fillState; }

    /** Every node snooped for @p m has responded. */
    virtual bool allResponsesIn(const Mshr &m) const = 0;

    /** The home retires @p key's transaction on @p line (unblock). */
    virtual void onRetire(Addr /*line*/, const TxnKey & /*key*/) {}

    /** A message type only this policy uses. */
    virtual void handlePolicyMsg(const Msg &m) = 0;

    // --- Engine pieces the policies call ----------------------------

    /** Snoop @p targets for miss @p m. */
    void snoopTargets(const Mshr &m, const CoreSet &targets);

    /** Send a snoopReq shaped like @p like from @p src to @p dst. */
    void sendSnoop(CoreId src, CoreId dst, const Msg &like);

    /**
     * Read @p line at its home and, unless claimMemoryData() declines
     * when the read finishes, send the data to @p key's requester
     * with fill state @p fill.
     */
    void sendMemoryData(Addr line, const TxnKey &key, Mesif fill);

    /**
     * The transaction state a response belongs to: the active MSHR,
     * or a lingering transaction whose core already resumed.
     */
    Mshr *txnFor(CoreId core, Addr line, std::uint64_t txn);

    /** Resume the core and retire the transaction once able to. */
    void checkCompletion(Mshr &m);

  private:
    void startMiss(Mshr &m) final;
    void handleMsg(const Msg &m) final;
    void onSnoopReq(const Msg &m);
    void onSnoopResp(const Msg &m);
    void onData(const Msg &m);
    void onAckInv(const Msg &m);
    void onUnblock(const Msg &m);

    /**
     * Resume the core once its data (and, for writes, the ordering)
     * is settled; the transaction lingers until every snoop response
     * arrived. @return true if the Mshr was moved (invalid reference
     * afterwards).
     */
    bool maybeResumeCore(Mshr &m);

    /** Resumed-but-not-drained transactions, keyed by txn id;
     * per-miss churn, so entries come from a pool. */
    PooledMap<Mshr> lingering_;
    std::uint64_t late_data_drops_ = 0;
};

/** Broadcast snooping (Protocol::broadcast). */
class BroadcastMemSys : public SnoopMemSys
{
  public:
    BroadcastMemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
                    AccessCompletion &completion);

    PoolStats txnPoolStats() const override;
    void hashState(StateHasher &h) const override;

  private:
    /** Home-side speculative memory fetch state, keyed by line. */
    struct SpecFetch
    {
        TxnKey key;
        bool cancelled = false;
    };

    void launch(Mshr &m) override;
    void onSnoopArrival(const Msg &m) override;
    void onOwnerAnswer(CoreId self, const Msg &m, Tick lat) override;
    bool claimMemoryData(Addr line, const TxnKey &key) override;
    bool memoryDataUsable(const Mshr &m) const override;
    Mesif memoryFill(const Mshr &m) const override;
    bool allResponsesIn(const Mshr &m) const override;
    void onRetire(Addr line, const TxnKey &key) override;
    void handlePolicyMsg(const Msg &m) override;

    /** Per-miss insert/erase churn: pool-backed (see pool.hh). */
    PooledMap<SpecFetch> spec_fetch_;
};

/** Predicted-multicast snooping (Protocol::multicast). */
class MulticastMemSys : public SnoopMemSys
{
  public:
    MulticastMemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
                    DestinationPredictor *predictor,
                    AccessCompletion &completion);

    void hashState(StateHasher &h) const override;
    void checkDirectory() const override;

    /** Multicasts whose mask missed a required node (fallback). */
    std::uint64_t insufficientMasks() const { return insufficient_masks_; }

  private:
    void launch(Mshr &m) override;
    void onSnoopArrival(const Msg &m) override;
    bool allResponsesIn(const Mshr &m) const override;
    void handlePolicyMsg(const Msg &m) override;
    void onWriteback(CoreId core, Addr line) override;

    void onVerify(const Msg &m);
    void processVerify(const Msg &m);
    void onGrant(const Msg &m);

    /** Memory-side verification directory. */
    HomeDirectory dir_;
    std::uint64_t insufficient_masks_ = 0;
};

} // namespace spp

#endif // SPP_COHERENCE_SNOOP_PROTOCOL_HH
