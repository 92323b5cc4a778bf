/**
 * @file
 * Content-addressed experiment result store (the warm half of
 * "sweep as a service").
 *
 * One entry caches the full ExperimentResult of one experiment cell,
 * keyed by everything that determines it: the workload name, the
 * iteration scale, the trace-collection flags, the complete Config
 * rendering, and the code version (git describe). Sweeps
 * consult the store before simulating; a warm cell deserializes to a
 * result byte-identical to a live run, a cold cell simulates and
 * populates the entry atomically (temp + rename, the shared
 * content-store discipline — see common/content_store.hh).
 *
 * Keys are auditable: the canonical preimage is stored inside each
 * entry and verified on load, so a hash collision or a hand-renamed
 * file can never serve the wrong cell. Loads are strict — any parse
 * or schema failure marks the entry corrupt, warns, and falls back
 * to simulation (which then overwrites the bad entry).
 *
 * Not every cell is cacheable: runs with prepare() hooks mutate the
 * built system in ways the key cannot see, a replayed trace file is
 * an input the key does not hash, and runs with telemetry,
 * attribution or coherence checking produce side artifacts a cache
 * hit would silently skip. Those cells bypass the store (counted
 * separately from misses).
 */

#ifndef SPP_SERVICE_RESULT_STORE_HH
#define SPP_SERVICE_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "analysis/experiment.hh"
#include "common/content_store.hh"

namespace spp {

/** On-disk schema tag; bump when the entry layout changes. */
inline constexpr const char *resultStoreSchema = "spp-result-v2";

/**
 * Process-wide store traffic counters. Atomic: sweep workers consult
 * the store concurrently. Benches report them after a sweep.
 */
struct ResultStoreStats
{
    std::atomic<std::uint64_t> hits{0};     ///< Served from disk.
    std::atomic<std::uint64_t> misses{0};   ///< Simulated + stored.
    std::atomic<std::uint64_t> bypasses{0}; ///< Uncacheable cells.
    std::atomic<std::uint64_t> corrupt{0};  ///< Bad entries replaced.

    void
    reset()
    {
        hits = 0;
        misses = 0;
        bypasses = 0;
        corrupt = 0;
    }
};

/** The one store-traffic tally of this process. */
ResultStoreStats &resultStoreStats();

/**
 * Canonical key of one experiment cell. @p cfg is the cell's
 * complete config. @p git is the code version baked into the
 * key — production callers pass gitDescribe(); tests pass synthetic
 * values to exercise staleness without rebuilding.
 */
ContentKey resultKey(const std::string &workload, const Config &cfg,
                     double scale, bool collect_trace,
                     bool record_targets, const std::string &git);

/** Entry path inside @p dir (".sppresult.json" extension). */
std::string resultPath(const std::string &dir,
                       const std::string &workload,
                       std::uint64_t key_hash);

/** Can the store serve/populate this cell? See file comment. */
bool resultCacheable(const ExperimentConfig &cfg);

/**
 * Try to serve @p path. True on a warm hit with @p res filled (and
 * hits incremented); false on absent (miss) or corrupt (corrupt,
 * with a warning) entries — the caller simulates either way.
 * @p key_preimage is the expected resultKey().describe() rendering;
 * entries recording any other key are rejected as corrupt.
 */
bool loadCachedResult(const std::string &path,
                      const std::string &key_preimage,
                      ExperimentResult &res);

/**
 * Populate @p path after a cold simulation (atomic temp + rename;
 * the store directory is created on demand). Serialization failures
 * warn and drop the entry rather than failing the run.
 */
void storeResult(const std::string &path,
                 const std::string &key_preimage,
                 const ExperimentResult &res);

} // namespace spp

#endif // SPP_SERVICE_RESULT_STORE_HH
