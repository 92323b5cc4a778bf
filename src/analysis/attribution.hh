/**
 * @file
 * AttributionProfiler: per-sync-point misprediction and traffic
 * accounting.
 *
 * The paper's thesis is that synchronization points *explain*
 * coherence communication; this profiler makes that explanation
 * observable. It listens to two streams — resolved predictor
 * decisions (AttributionSink::onMissResolved) and injected protocol
 * messages (onMessageSent) — and charges each to the attribution key
 *
 *     (sync type, sync static id, sync epoch, address region, core)
 *
 * where the sync fields name the sync-point that *began* the core's
 * current epoch (the paper's epoch naming), the epoch is the
 * per-core count of sync-points seen, and the region is the access
 * address at `regionBytes` (4 KiB) granularity. Every decision lands
 * in one of four classes at resolution time:
 *
 *   correct      prediction attempted, sufficient, nothing wasted
 *   over         extra targets predicted: wasted request bytes
 *   under        communicating miss the prediction did not cover:
 *                the demand-miss latency is charged here
 *   unpredicted  no prediction attempted (no predictor, filtered,
 *                or a non-predicted protocol)
 *
 * Aggregation is a bounded top-K store: at 2x capacity the table is
 * compacted by fully sorting the entries (score descending, key
 * ascending — a total order independent of hash iteration, so
 * eviction is deterministic) and folding the tail into an overflow
 * cell. Totals therefore stay exact even when keys are evicted.
 *
 * Off by default; when detached every hook site in the coherence
 * layer is one untaken branch and a run is bit-identical to an
 * unobserved one. When attached the profiler is purely
 * observational: it never changes protocol behavior or timing, so
 * attribution.json from a fixed-seed run is byte-stable.
 */

#ifndef SPP_ANALYSIS_ATTRIBUTION_HH
#define SPP_ANALYSIS_ATTRIBUTION_HH

#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/mem_sys.hh"
#include "common/types.hh"
#include "sim/cmp_system.hh"
#include "sync/sync_types.hh"
#include "telemetry/json.hh"

namespace spp {

/** Attribution knobs; a leaf aggregate like TelemetryOptions. */
struct AttributionOptions
{
    /** Output directory for attribution artifacts; empty =
     * disabled and the run pays zero observation cost. */
    std::string dir;

    /** Retained-key bound of the top-K store. */
    std::size_t topK = 256;

    bool enabled() const { return !dir.empty(); }

    /** SPP_ATTRIBUTION (dir). */
    static AttributionOptions fromEnv();
};

class AttributionProfiler : public AttributionSink, public SyncListener
{
  public:
    /** Address-region granularity of the attribution key. */
    static constexpr unsigned regionBytes = 4096;

    /** Where cost is charged: the sync-point beginning the core's
     * current epoch, plus address region and core. */
    struct Key
    {
        SyncType syncType = SyncType::threadStart;
        std::uint64_t syncStatic = 0;
        std::uint64_t syncEpoch = 0;  ///< Per-core sync-point count.
        Addr region = 0;              ///< addr / regionBytes.
        CoreId core = 0;

        bool operator==(const Key &) const = default;
        bool operator<(const Key &o) const;
    };

    /** Everything accumulated under one key (also reused for the
     * grand totals and the eviction-overflow cell). */
    struct Cell
    {
        std::uint64_t correct = 0;
        std::uint64_t over = 0;
        std::uint64_t under = 0;
        std::uint64_t unpredicted = 0;
        std::uint64_t wastedBytes = 0;       ///< Over-prediction cost.
        std::uint64_t underLatencyTicks = 0; ///< Under-prediction cost.
        std::uint64_t messages = 0;          ///< Protocol msgs injected.
        std::uint64_t nocBytes = 0;          ///< Their payload bytes.

        std::uint64_t decisions() const
        {
            return correct + over + under + unpredicted;
        }
        /** Eviction/ranking score: the total attributable cost. */
        std::uint64_t score() const
        {
            return wastedBytes + nocBytes + underLatencyTicks;
        }
        void fold(const Cell &o);
    };

    explicit AttributionProfiler(AttributionOptions opts);

    /** Hook @p sys (sink + sync listener). */
    void attach(CmpSystem &sys);

    // AttributionSink
    void onMissResolved(CoreId core, Addr line,
                        const AccessOutcome &out,
                        std::uint64_t wasted_bytes) override;
    void onMessageSent(CoreId requester, Addr line,
                       unsigned bytes) override;

    // SyncListener
    void onSyncPoint(CoreId core, const SyncPointInfo &info) override;

    /** The full machine-readable document (spp.attribution.v1):
     * ranked entries, exact totals, overflow summary. Deterministic
     * for a fixed-seed run. */
    Json toJson() const;

    /** Ranked human-readable report of the top @p topN keys. */
    std::string textReport(std::size_t topN = 20) const;

    /** Write <dir>/<label>.attribution.{json,txt}; creates dir. */
    void writeArtifacts(const std::string &label) const;

    /** All live entries, fully sorted (score desc, key asc); the
     * deterministic ranking used by every artifact. */
    std::vector<std::pair<Key, Cell>> sortedEntries() const;

    const Cell &totals() const { return totals_; }
    const Cell &evictedCell() const { return evicted_; }
    std::uint64_t evictions() const { return evictions_; }
    std::size_t entries() const { return store_.size(); }
    const AttributionOptions &options() const { return opts_; }

  private:
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };

    /** The core's current epoch context, advanced per sync-point. */
    struct EpochCtx
    {
        SyncType type = SyncType::threadStart;
        std::uint64_t staticId = 0;
        std::uint64_t epoch = 0;

        /** Single-entry memo for cellFor(): messages and miss
         * resolutions arrive in per-transaction bursts that hit the
         * same (epoch, region) key, so one cached cell pointer
         * absorbs most of the hash-map traffic. Invalidated on epoch
         * advance and whenever compact() rebuilds the store (the
         * only operation that moves cells). */
        Addr lastRegion = 0;
        Cell *lastCell = nullptr;
    };

    Cell &cellFor(CoreId core, Addr addr);
    void compact();

    static constexpr unsigned regionShift =
        std::countr_zero(regionBytes);

    AttributionOptions opts_;
    std::vector<EpochCtx> cores_;
    std::unordered_map<Key, Cell, KeyHash> store_;
    Cell totals_;
    Cell evicted_;
    std::uint64_t evictions_ = 0;
};

} // namespace spp

#endif // SPP_ANALYSIS_ATTRIBUTION_HH
