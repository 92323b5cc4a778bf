/**
 * @file
 * System configuration, mirroring Table 4 of the paper plus predictor
 * tuning knobs from Sections 3-5.
 */

#ifndef SPP_COMMON_CONFIG_HH
#define SPP_COMMON_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hh"
#include "mem/mesif.hh"

namespace spp {

/** Which coherence scheme a run uses. */
enum class Protocol
{
    directory,      ///< Baseline directory MESIF (indirection on miss).
    broadcast,      ///< Snooping broadcast on a mesh (latency-ideal).
    predicted,      ///< Directory MESIF + destination-set prediction.
    multicast,      ///< Multicast snooping [8]: snoop the predicted
                    ///< set, verified by a memory-side directory.
};

/** Which destination-set predictor drives Protocol::predicted. */
enum class PredictorKind
{
    none,   ///< No predictor (only meaningful with dir/broadcast).
    sp,     ///< Synchronization-point predictor (this paper).
    addr,   ///< Address (macroblock) indexed group predictor [36].
    inst,   ///< Instruction (PC) indexed group predictor [28, 36].
    uni,    ///< Unindexed locality predictor (single entry).
};

/** Directory sharer-set representation (see home_directory.hh). */
enum class SharerFormat
{
    full,    ///< Exact full-map bit vector: n bits per entry.
    coarse,  ///< One bit per group of coarseCoresPerBit cores;
             ///< invalidations multicast to the group superset.
    limited, ///< sharerPointers exact core IDs + an overflow flag;
             ///< broadcast once more cores share.
};

const char *toString(Protocol p);
const char *toString(PredictorKind k);
const char *toString(SharerFormat f);

/** Parse a --format CLI value; calls fatal() on unknown names. */
SharerFormat sharerFormatFromString(const std::string &s);

/** Non-fatal enum parsers (CLI flags, generic field setter). */
std::optional<Protocol> parseProtocolName(const std::string &s);
std::optional<PredictorKind> parsePredictorName(const std::string &s);
std::optional<SharerFormat> parseSharerFormatName(const std::string &s);

/** Machine and predictor parameters; defaults follow the paper. */
struct Config
{
    // --- System (Table 4) ---
    unsigned numCores = 16;         ///< Tiles; must be meshX * meshY.
    unsigned meshX = 4;             ///< Mesh columns.
    unsigned meshY = 4;             ///< Mesh rows.

    unsigned lineBytes = 64;        ///< Cache line size.

    unsigned l1Bytes = 16 * 1024;   ///< Private L1 data cache size.
    unsigned l1Assoc = 1;           ///< L1 associativity (direct).
    Tick l1Latency = 2;             ///< Load-to-use latency.

    unsigned l2Bytes = 1024 * 1024; ///< Private L2 size.
    unsigned l2Assoc = 8;           ///< L2 associativity.
    Tick l2TagLatency = 2;          ///< L2 tag lookup.
    Tick l2DataLatency = 6;         ///< L2 data access.

    Tick memLatency = 150;          ///< Main memory access (also the
                                    ///< DRAM closed-bank latency).
    Tick dirLatency = 8;            ///< Directory state read at home
                                    ///< (tag + sharing-vector array).

    // Optional banked open-row DRAM model (default: fixed latency).
    bool enableDram = false;
    unsigned dramBanks = 8;         ///< Banks per home controller.
    unsigned dramRowLines = 32;     ///< Controller-local lines / row.
    Tick dramRowHitLatency = 100;
    Tick dramRowConflictLatency = 180;

    // --- NoC ---
    Tick routerLatency = 2;         ///< Per-hop router pipeline.
    Tick linkLatency = 1;           ///< Per-hop link traversal.
    unsigned linkBytesPerCycle = 16;///< Link width for serialization.
    unsigned ctrlPacketBytes = 8;   ///< Control message payload size.
    unsigned dataPacketBytes = 72;  ///< Data message (line + header).
    bool modelContention = true;    ///< Reserve link slots (busy-until).

    // --- Coherence / prediction ---
    Protocol protocol = Protocol::directory;
    PredictorKind predictor = PredictorKind::none;

    /**
     * MESIF's Forwarding state (default). With false, the protocol
     * degrades to plain MESI: clean-shared lines cannot be sourced
     * cache-to-cache, so reads of shared data go to memory — an
     * ablation showing why the paper's baseline needs F.
     */
    bool enableFState = true;

    /**
     * Directory sharer-set representation. full keeps the exact
     * bit-vector baseline; coarse and limited trade exactness for
     * space at large core counts, over-approximating the sharer set
     * (extra invalidations, never missed ones).
     */
    SharerFormat sharerFormat = SharerFormat::full;
    unsigned coarseCoresPerBit = 4; ///< K: cores per coarse bit.
    unsigned sharerPointers = 4;    ///< P: limited-format pointers.

    /** Modelled bits of one directory entry's sharer field: n (full),
     * ceil(n/K) (coarse) or P*ceil(log2 n)+1 (limited). */
    std::size_t sharerEntryBits() const;

    /** State a reader of a (non-solo) line fills with. */
    Mesif
    cleanSharedFill() const
    {
        return enableFState ? Mesif::forwarding : Mesif::shared;
    }

    // SP-predictor knobs (Sections 3.3, 4.2-4.4).
    double hotThreshold = 0.10;     ///< Hot if >= 10% of epoch volume.
    unsigned historyDepth = 2;      ///< Signatures kept per SP entry.
    unsigned warmupMisses = 30;     ///< d=0 warm-up before predicting.
    unsigned noiseMisses = 8;       ///< Below this, epoch is "noisy".
    unsigned confidenceBits = 4;    ///< Saturating counter width.
    bool enableRecovery = true;     ///< Confidence-triggered recovery.
    bool enablePatterns = true;     ///< Stride-2 pattern detection.
    bool unionEpochIntoLock = false;///< Sec 4.4 lock extension.
    unsigned maxHotSetSize = 0;     ///< Cap on extracted hot sets
                                    ///< (0 = unbounded; Sec 5.2
                                    ///< power-envelope policy).

    /**
     * Region-based sharing filter (Section 5.3): suppress prediction
     * on misses to regions never observed shared, eliminating most
     * of the bandwidth wasted on non-communicating misses.
     */
    bool enableSharingFilter = false;
    unsigned filterRegionBytes = 4096;

    // Martin-style group predictors (Section 5.4).
    unsigned macroBlockBytes = 256; ///< ADDR indexing granularity.
    unsigned groupThreshold = 2;    ///< 2-bit counter predict level.
    unsigned trainDownPeriod = 32;  ///< 5-bit rollover counter period.
    unsigned predictorEntries = 0;  ///< 0 = unlimited table.

    // --- Workload / run control ---
    std::uint64_t seed = 1;         ///< Root RNG seed.
    Tick maxTicks = 0;              ///< 0 = run until completion.

    /**
     * Fault injection for validating the protocol checker itself
     * (bench/fuzz_protocol --inject N). 0 = off (always, outside the
     * checker's self-test). 1 = the directory skips one invalidation
     * on writes (stale-sharer / SWMR violation). 2 = memory data is
     * served one version stale (freshness violation). 3 = an unblock
     * is occasionally dropped (line-lock leak; caught by the
     * watchdog / quiescence checks).
     */
    unsigned injectBug = 0;

    /** Sanity-check the parameters; calls fatal() on user error. */
    void validate() const;
};

/**
 * Strictly parse all of @p text as a finite number > 0 (workload
 * scales, tolerances). Returns "" and sets @p out on success, else a
 * complaint naming @p what: empty input, a sign, trailing junk,
 * inf/nan, overflow and zero are all rejected.
 */
std::string parsePositive(const std::string &what, const std::string &text,
                          double &out);

/**
 * Strictly parse all of @p text as a base-10 unsigned integer in
 * [@p lo, @p hi] (worker counts, periods, sizes). Returns "" and sets
 * @p out on success, else a complaint naming @p what: empty input,
 * any non-digit (a sign too, so "-1" cannot wrap to a huge value),
 * overflow and an out-of-range value are all rejected.
 */
std::string parseUnsigned(const std::string &what, const std::string &text,
                          std::uint64_t lo, std::uint64_t hi,
                          std::uint64_t &out);

/** Most-square mesh factorization of @p n cores: x * y == n, x >= y
 * (a prime @p n yields an n x 1 row). */
void meshFor(unsigned n, unsigned &x, unsigned &y);

/**
 * Non-fatal twin of Config::validate(): returns "" when @p cfg is
 * consistent, else the first complaint. Bench startup probes --set
 * overrides with it; validate() turns the same string fatal.
 */
std::string configValidate(const Config &cfg);

/**
 * Every Config field, in declaration order. configDescribe() renders
 * from this list, and config.cc statically asserts the list matches
 * the struct (field count and layout), so adding a Config field
 * without extending this macro fails the build instead of silently
 * vanishing from run manifests and config hashes.
 */
#define SPP_CONFIG_FIELDS(X)                                          \
    X(numCores) X(meshX) X(meshY) X(lineBytes)                        \
    X(l1Bytes) X(l1Assoc) X(l1Latency)                                \
    X(l2Bytes) X(l2Assoc) X(l2TagLatency) X(l2DataLatency)            \
    X(memLatency) X(dirLatency)                                       \
    X(enableDram) X(dramBanks) X(dramRowLines)                        \
    X(dramRowHitLatency) X(dramRowConflictLatency)                    \
    X(routerLatency) X(linkLatency) X(linkBytesPerCycle)              \
    X(ctrlPacketBytes) X(dataPacketBytes) X(modelContention)          \
    X(protocol) X(predictor) X(enableFState)                          \
    X(sharerFormat) X(coarseCoresPerBit) X(sharerPointers)            \
    X(hotThreshold) X(historyDepth) X(warmupMisses) X(noiseMisses)    \
    X(confidenceBits) X(enableRecovery) X(enablePatterns)             \
    X(unionEpochIntoLock) X(maxHotSetSize)                            \
    X(enableSharingFilter) X(filterRegionBytes)                       \
    X(macroBlockBytes) X(groupThreshold) X(trainDownPeriod)           \
    X(predictorEntries)                                               \
    X(seed) X(maxTicks) X(injectBug)

/**
 * Canonical one-line "key=value key=value ..." rendering of every
 * Config field, in declaration order. Stable across runs and hosts,
 * so it doubles as the input of configHash() and as the
 * human-auditable config record in telemetry run manifests.
 */
std::string configDescribe(const Config &cfg);

/** FNV-1a hash of configDescribe(@p cfg); stamps run manifests. */
std::uint64_t configHash(const Config &cfg);

/**
 * Set one Config field by its SPP_CONFIG_FIELDS name from a string
 * value: enums parse by name, bools accept 0/1/true/false, numbers
 * parse strictly in their field's type. Returns "" on success, else
 * a description of what was wrong (unknown field, bad value) for
 * the caller to report. The unified field API: bench --set and
 * store-key audits go through the same names configDescribe()
 * prints.
 */
std::string configSetField(Config &cfg, const std::string &name,
                           const std::string &value);

} // namespace spp

#endif // SPP_COMMON_CONFIG_HH
