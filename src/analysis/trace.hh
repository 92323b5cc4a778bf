/**
 * @file
 * Communication-trace collection for the characterization study
 * (Section 3): per-epoch communication-volume distributions, per-PC
 * volumes, and the epoch sequences the locality / pattern analyses
 * consume.
 */

#ifndef SPP_ANALYSIS_TRACE_HH
#define SPP_ANALYSIS_TRACE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "coherence/mem_sys.hh"
#include "common/core_set.hh"
#include "common/types.hh"
#include "sync/sync_types.hh"

namespace spp {

/** Per-interval communication record. */
struct EpochRecord
{
    /** @p n_cores sizes the per-target volume vector; records built
     * by CommTrace always use the configured core count. */
    explicit EpochRecord(unsigned n_cores = 0) : volume(n_cores, 0) {}

    CoreId core = invalidCore;
    SyncType beginType = SyncType::threadStart;
    std::uint64_t staticId = 0;
    std::uint64_t dynamicId = 0;
    /** Communication volume towards each target core. */
    std::vector<std::uint32_t> volume;
    std::uint32_t misses = 0;
    std::uint32_t commMisses = 0;
    /** Per-communicating-miss target sets (only when the trace was
     * built with record_targets; used for ideal-accuracy analysis). */
    std::vector<CoreSet> missTargets;

    std::uint64_t
    totalVolume() const
    {
        std::uint64_t sum = 0;
        for (auto v : volume)
            sum += v;
        return sum;
    }

    /** Targets covering at least @p threshold of the volume. */
    CoreSet hotSet(double threshold) const;
};

/**
 * SyncListener + access observer that records the epoch structure of
 * a run. Attach via CommTrace::attach(CmpSystem&).
 */
class CommTrace : public SyncListener
{
  public:
    explicit CommTrace(unsigned n_cores, bool record_targets = false);

    /** Register as sync listener and access observer of @p sys. */
    template <typename System>
    void
    attach(System &sys)
    {
        sys.syncManager().addListener(this);
        sys.setAccessObserver(
            [this](CoreId c, Addr a, Pc pc, const AccessOutcome &o) {
                onAccess(c, a, pc, o);
            });
    }

    void onSyncPoint(CoreId core, const SyncPointInfo &info) override;
    void onAccess(CoreId core, Addr addr, Pc pc,
                  const AccessOutcome &out);

    /** Finish the trailing epochs (call after the run). */
    void finalize();

    /** All completed epochs of @p core, in execution order. */
    const std::vector<EpochRecord> &epochs(CoreId core) const
    {
        return epochs_[core];
    }

    /** Whole-run communication volume of @p core per target. */
    const std::vector<std::uint64_t> &
    wholeRunVolume(CoreId core) const
    {
        return whole_[core];
    }

    /** Per-static-instruction volume map of one core; ordered so
     * consumers (and serialized forms) iterate deterministically. */
    using PcVolumeMap = std::map<Pc, std::vector<std::uint32_t>>;

    /** Per-static-instruction volume at @p core. */
    const PcVolumeMap &
    pcVolume(CoreId core) const
    {
        return pc_volume_[core];
    }

    unsigned numCores() const { return n_cores_; }
    bool recordsTargets() const { return record_targets_; }

    /** Total misses / communicating misses across all cores. */
    std::uint64_t totalMisses() const { return total_misses_; }
    std::uint64_t totalCommMisses() const { return total_comm_; }

    /**
     * Rebuild an already-finalized trace from serialized parts (the
     * result store's warm path). The restored object answers every
     * accessor exactly as the live-collected one did; feeding it
     * further onAccess/onSyncPoint events is not meaningful.
     */
    static CommTrace
    restore(unsigned n_cores, bool record_targets,
            std::vector<std::vector<EpochRecord>> epochs,
            std::vector<std::vector<std::uint64_t>> whole,
            std::vector<PcVolumeMap> pc_volume,
            std::uint64_t total_misses, std::uint64_t total_comm);

  private:
    unsigned n_cores_;
    bool record_targets_;
    std::vector<EpochRecord> current_;
    std::vector<std::vector<EpochRecord>> epochs_;
    std::vector<std::vector<std::uint64_t>> whole_;
    std::vector<PcVolumeMap> pc_volume_;
    std::uint64_t total_misses_ = 0;
    std::uint64_t total_comm_ = 0;
};

} // namespace spp

#endif // SPP_ANALYSIS_TRACE_HH
