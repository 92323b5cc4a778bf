/**
 * @file
 * Distributed directory MESIF protocol with the paper's Section 4.5
 * destination-set prediction extension.
 *
 * Baseline transaction flow (no prediction):
 *   requester --req--> home directory --fwd/inv--> peers --data/ack-->
 *   requester --unblock--> home.
 * The home serializes transactions per line (LineLockTable) and keeps
 * each line's sharer set and owner (the E/M/F holder, which can
 * source data cache-to-cache) in a HomeDirectory.
 *
 * Prediction extension (Section 4.5): on a miss, the requester sends
 * predicted requests directly to the predicted nodes and, in
 * parallel, the normal request (carrying the predicted bit vector) to
 * the directory. Predicted owners forward data immediately (2-hop
 * miss); predicted sharers invalidate and ack directly. The directory
 * detects insufficient predictions and services them at baseline
 * latency. Races between predicted requests and in-flight
 * transactions resolve via Nacks: a peer accepts a predicted request
 * only if the line's home lock is free or held by the same
 * transaction; a requester whose predicted targets all Nacked
 * escalates with predFailed, and Nacked invalidation targets are
 * retried directly once the grant names the authoritative ack set.
 */

#ifndef SPP_COHERENCE_DIRECTORY_PROTOCOL_HH
#define SPP_COHERENCE_DIRECTORY_PROTOCOL_HH

#include <unordered_map>

#include "coherence/home_directory.hh"
#include "coherence/mem_sys.hh"

namespace spp {

/**
 * Directory MESIF memory system (Protocol::directory and
 * Protocol::predicted).
 */
class DirectoryMemSys : public MemSys
{
  public:
    DirectoryMemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
                    DestinationPredictor *predictor,
                    AccessCompletion &completion);

    void checkDirectory() const override;

    /** Misses serviced without directory indirection (Fig. 12). */
    std::uint64_t indirectionsAvoided() const
    {
        return indirections_avoided_;
    }

    PoolStats txnPoolStats() const override { return txns_.stats(); }

    void hashState(StateHasher &h) const override;

  protected:
    void startMiss(Mshr &m) override;
    void handleMsg(const Msg &m) override;
    void onCompleteMiss(Mshr &m) override;
    void onWriteback(CoreId core, Addr line) override;

  private:
    /** Per-line transaction bookkeeping while the home lock is held. */
    struct DirTxn
    {
        TxnKey key;
        bool waitingPeer = false;   ///< Read left to the peer path.
    };

    // Home-side handlers.
    void onRequest(const Msg &m);
    void processRequest(const Msg &m);
    void processRead(const Msg &m);
    void processWrite(const Msg &m);
    void onPredFailed(const Msg &m);
    void onUnblock(const Msg &m);
    void serviceReadFromDir(const Msg &m, HomeDirectory::Entry &e);
    void sendMemoryData(const Msg &req, Mesif fill_state);

    // Peer-side handlers.
    void onFwdRead(const Msg &m);
    void onInv(const Msg &m);
    void onPredRequest(const Msg &m);

    // Requester-side handlers.
    void onData(const Msg &m);
    void onAckInv(const Msg &m);
    void onNack(const Msg &m);
    void onGrant(const Msg &m);
    void maybeRetryNacked(Mshr &m);
    void checkCompletion(Mshr &m);

    HomeDirectory dir_;
    /** One entry per in-flight home transaction: per-miss insert and
     * erase, so entries come from a pool. */
    PooledMap<DirTxn> txns_;
    /** predFailed notices that arrived before their request was
     * processed (their request may be queued behind other
     * transactions, so several can be pending per line). */
    std::unordered_map<Addr, std::vector<TxnKey>> early_pred_failed_;
    /** Unblocks that arrived before their request was processed. */
    std::unordered_map<Addr, std::vector<TxnKey>> early_unblock_;

    /** Find-and-erase @p key in an early-record map. */
    static bool takeEarly(
        std::unordered_map<Addr, std::vector<TxnKey>> &map, Addr line,
        const TxnKey &key);
    std::uint64_t indirections_avoided_ = 0;
};

} // namespace spp

#endif // SPP_COHERENCE_DIRECTORY_PROTOCOL_HH
