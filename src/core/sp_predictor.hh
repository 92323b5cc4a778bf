/**
 * @file
 * SP-prediction: synchronization-point-based destination-set
 * prediction (Section 4, the paper's contribution).
 *
 * Per core, the predictor tracks the running sync-epoch: its
 * communication counters, the prediction register holding the current
 * hot-communication-set predictor, and a 4-bit confidence counter.
 * Sync-point notifications delimit epochs: the ending epoch's hot set
 * is stored as a signature in the SP-table (unless the instance was
 * "noisy"), and the new epoch's predictor is formed from the table
 * per Table 3 (history depth 0/1/2, stride-2 patterns, lock-holder
 * sequences). A confidence drop triggers recovery: the predictor is
 * rebuilt from the counters of the running interval.
 */

#ifndef SPP_CORE_SP_PREDICTOR_HH
#define SPP_CORE_SP_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "core/comm_counters.hh"
#include "core/sp_table.hh"
#include "predict/predictor.hh"
#include "sync/sync_types.hh"

namespace spp {

/** SP-predictor statistics of one run. */
struct SpStats
{
    Counter epochsStarted;
    Counter noisyEpochs;        ///< Instances that stored no signature.
    Counter recoveries;         ///< Confidence-triggered rebuilds.
    Counter lockEpochs;         ///< Critical-section epochs.
    Counter warmupExtractions;  ///< d=0 mid-epoch extractions.
    Counter patternHits;        ///< Predictors formed from stride-2.
};

/**
 * The SP destination-set predictor. Also a SyncListener: the
 * SyncManager drives epoch boundaries.
 */
class SpPredictor : public DestinationPredictor, public SyncListener
{
  public:
    SpPredictor(const Config &cfg, unsigned n_cores);

    // --- DestinationPredictor ---
    Prediction predict(const PredictionQuery &q) override;
    void trainResponse(const PredictionQuery &q,
                       const CoreSet &who) override;
    void trainExternal(CoreId observer, Addr line, Addr macro_block,
                       Pc last_pc, CoreId requester,
                       bool is_write) override;
    void feedback(CoreId core, const Prediction &pred,
                  bool communicating, bool sufficient) override;
    std::size_t storageBits() const override;
    std::uint64_t tableAccesses() const override;

    // --- SyncListener ---
    void onSyncPoint(CoreId core, const SyncPointInfo &info) override;

    const SpStats &stats() const { return sp_stats_; }
    const SpTable &table() const { return table_; }

    /**
     * Pre-seed the SP-table with a profiled signature (Section 5.2:
     * "this gap may be bridged somewhat if off-line profiling offers
     * initial prediction information").
     */
    void
    seedSignature(CoreId core, std::uint64_t static_id,
                  const CoreSet &sig)
    {
        table_.storeSignature(core, static_id, sig);
    }

    /** Pre-seed a lock entry's holder history. */
    void
    seedLockHolder(std::uint64_t lock_addr, CoreId holder)
    {
        table_.storeLockHolder(lock_addr, holder);
    }

    /** The current prediction register of @p core (tests). */
    const CoreSet &predictorRegister(CoreId core) const
    {
        return epochs_[core].predictor;
    }

  private:
    /** Per-core running-epoch state. */
    struct EpochState
    {
        SyncType beginType = SyncType::threadStart;
        std::uint64_t staticId = 0;
        bool isCriticalSection = false;
        CommCounters counters;
        unsigned misses = 0;        ///< All misses this epoch.
        unsigned commMisses = 0;    ///< Communicating misses.
        CoreSet predictor;          ///< Prediction register.
        PredSource source = PredSource::none;
        unsigned confidence = 0;    ///< Saturating counter.
        bool warmedUp = false;      ///< d=0 extraction happened.
    };

    /** Close the running epoch of @p core (store its signature). */
    void closeEpoch(CoreId core);

    /** Form the new epoch's predictor from the SP-table (Table 3). */
    void formPredictor(CoreId core, const SyncPointInfo &info,
                       const CoreSet &prev_hot);

    unsigned confidenceMax() const
    {
        return (1u << cfg_.confidenceBits) - 1;
    }

    const Config &cfg_;
    unsigned n_cores_;
    SpTable table_;
    std::vector<EpochState> epochs_;
    SpStats sp_stats_;
};

} // namespace spp

#endif // SPP_CORE_SP_PREDICTOR_HH
