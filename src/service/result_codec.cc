#include "service/result_codec.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/core_set.hh"

namespace spp {

namespace {

// Every serialized statistic field, by group. The size guards below
// pin these lists to the structs: a counter or Average added to a
// stats struct but not to its list (or vice versa) fails the build
// instead of silently vanishing from cached results.

#define SPP_MEM_COUNTER_FIELDS(X)                                     \
    X(accesses) X(l1Hits) X(l2Hits) X(misses) X(upgradeMisses)        \
    X(communicatingMisses) X(offChipMisses) X(writebacks)             \
    X(snoopLookups) X(predictionsAttempted)                           \
    X(predictionsSuppressed) X(predictionsOnCommunicating)            \
    X(predictionsOnNonComm) X(predictionsSufficient)                  \
    X(predWasteBytesComm) X(predWasteBytesNonComm)

#define SPP_MEM_AVERAGE_FIELDS(X)                                     \
    X(missLatency) X(commMissLatency) X(nonCommMissLatency)           \
    X(hitLatency) X(actualTargets) X(predictedTargets)

#define SPP_NOC_COUNTER_FIELDS(X)                                     \
    X(packets) X(flitBytes) X(byteHops) X(byteRouters)                \
    X(routerTraversals)

#define SPP_SYNC_COUNTER_FIELDS(X)                                    \
    X(syncPoints) X(barriersReleased) X(lockAcquisitions)             \
    X(lockContended) X(wakeups)

#define SPP_SP_COUNTER_FIELDS(X)                                      \
    X(epochsStarted) X(noisyEpochs) X(recoveries) X(lockEpochs)       \
    X(warmupExtractions) X(patternHits)

#define SPP_COUNT(f) +1
constexpr std::size_t memCounters = 0 SPP_MEM_COUNTER_FIELDS(SPP_COUNT);
constexpr std::size_t memAverages = 0 SPP_MEM_AVERAGE_FIELDS(SPP_COUNT);
constexpr std::size_t nocCounters = 0 SPP_NOC_COUNTER_FIELDS(SPP_COUNT);
constexpr std::size_t syncCounters =
    0 SPP_SYNC_COUNTER_FIELDS(SPP_COUNT);
constexpr std::size_t spCounters = 0 SPP_SP_COUNTER_FIELDS(SPP_COUNT);
#undef SPP_COUNT

// Counter is one u64; Average is {double, u64, double, double}.
// All members are 8-byte aligned, so the struct sizes are exact
// sums and any drift (field added/removed) trips these.
static_assert(sizeof(MemSysStats) ==
                  memCounters * sizeof(Counter) +
                      7 * sizeof(std::uint64_t) +
                      memAverages * sizeof(Average),
              "MemSysStats changed: update the codec field lists");
static_assert(sizeof(NocStats) ==
                  nocCounters * sizeof(Counter) + sizeof(Average) +
                      6 * sizeof(std::uint64_t),
              "NocStats changed: update the codec field lists");
static_assert(sizeof(SyncStats) == syncCounters * sizeof(Counter),
              "SyncStats changed: update the codec field lists");
static_assert(sizeof(SpStats) == spCounters * sizeof(Counter),
              "SpStats changed: update the codec field lists");

/** Largest double that still identifies an exact integer. */
constexpr double maxExactCount = 9007199254740992.0; // 2^53

// ------------------------------------------------------------------
// Encoding helpers.
// ------------------------------------------------------------------

Json
averageToJson(const Average &a)
{
    Json arr = Json::array();
    arr.push(Json(a.sum()));
    arr.push(Json(a.count()));
    arr.push(Json(a.max()));
    arr.push(Json(a.min()));
    return arr;
}

/** uint64 identifiers ride as decimal strings (see file comment). */
Json
u64ToJson(std::uint64_t v)
{
    return Json(std::to_string(v));
}

// ------------------------------------------------------------------
// Strict decoding helpers. All report through @p err and return
// false; callers bail out on the first failure.
// ------------------------------------------------------------------

const Json *
need(const Json &obj, const char *key, std::string &err)
{
    const Json *m = obj.isObject() ? obj.find(key) : nullptr;
    if (m == nullptr && err.empty())
        err = std::string("missing field '") + key + "'";
    return m;
}

bool
getDouble(const Json &obj, const char *key, double &out,
          std::string &err)
{
    const Json *m = need(obj, key, err);
    if (m == nullptr)
        return false;
    if (!m->isNumber()) {
        err = std::string("field '") + key + "' is not a number";
        return false;
    }
    out = m->asNumber();
    return true;
}

bool
countFromNumber(const Json &j, const char *what, std::uint64_t &out,
                std::string &err)
{
    if (!j.isNumber()) {
        err = std::string(what) + " is not a number";
        return false;
    }
    const double v = j.asNumber();
    if (!(v >= 0.0) || v > maxExactCount || v != std::floor(v)) {
        err = std::string(what) + " is not an exact count";
        return false;
    }
    out = static_cast<std::uint64_t>(v);
    return true;
}

bool
getCount(const Json &obj, const char *key, std::uint64_t &out,
         std::string &err)
{
    const Json *m = need(obj, key, err);
    if (m == nullptr)
        return false;
    return countFromNumber(*m, key, out, err);
}

bool
getCounter(const Json &obj, const char *key, Counter &out,
           std::string &err)
{
    std::uint64_t v = 0;
    if (!getCount(obj, key, v, err))
        return false;
    out.exchange(v);
    return true;
}

bool
u64FromJson(const Json &j, const char *what, std::uint64_t &out,
            std::string &err)
{
    if (!j.isString()) {
        err = std::string(what) + " is not a decimal string";
        return false;
    }
    const std::string &s = j.asString();
    if (s.empty() ||
        s.find_first_not_of("0123456789") != std::string::npos) {
        err = std::string(what) + " is not a decimal string";
        return false;
    }
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || *end != '\0') {
        err = std::string(what) + " value '" + s + "' out of range";
        return false;
    }
    return true;
}

bool
getU64Field(const Json &obj, const char *key, std::uint64_t &out,
            std::string &err)
{
    const Json *m = need(obj, key, err);
    if (m == nullptr)
        return false;
    return u64FromJson(*m, key, out, err);
}

bool
getAverage(const Json &obj, const char *key, Average &out,
           std::string &err)
{
    const Json *m = need(obj, key, err);
    if (m == nullptr)
        return false;
    if (!m->isArray() || m->size() != 4) {
        err = std::string("field '") + key +
            "' is not a [sum, count, max, min] array";
        return false;
    }
    const auto &a = m->items();
    for (unsigned i = 0; i < 4; ++i) {
        if (!a[i].isNumber()) {
            err = std::string("field '") + key +
                "' holds a non-number";
            return false;
        }
    }
    std::uint64_t count = 0;
    if (!countFromNumber(a[1], key, count, err))
        return false;
    out.restore(a[0].asNumber(), count, a[2].asNumber(),
                a[3].asNumber());
    return true;
}

template <std::size_t N>
bool
getU64Array(const Json &obj, const char *key,
            std::array<std::uint64_t, N> &out, std::string &err)
{
    const Json *m = need(obj, key, err);
    if (m == nullptr)
        return false;
    if (!m->isArray() || m->size() != N) {
        err = std::string("field '") + key + "' is not a " +
            std::to_string(N) + "-element array";
        return false;
    }
    for (std::size_t i = 0; i < N; ++i) {
        if (!countFromNumber(m->items()[i], key, out[i], err))
            return false;
    }
    return true;
}

// ------------------------------------------------------------------
// CommTrace payload.
// ------------------------------------------------------------------

Json
traceToJson(const CommTrace &t)
{
    Json doc = Json::object();
    doc["num_cores"] = Json(t.numCores());
    doc["record_targets"] = Json(t.recordsTargets());
    doc["total_misses"] = Json(t.totalMisses());
    doc["total_comm_misses"] = Json(t.totalCommMisses());

    Json epochs = Json::array();
    for (unsigned c = 0; c < t.numCores(); ++c) {
        Json per_core = Json::array();
        for (const EpochRecord &e : t.epochs(c)) {
            Json rec = Json::object();
            rec["begin_type"] =
                Json(static_cast<unsigned>(e.beginType));
            rec["static_id"] = u64ToJson(e.staticId);
            rec["dynamic_id"] = u64ToJson(e.dynamicId);
            rec["misses"] = Json(e.misses);
            rec["comm_misses"] = Json(e.commMisses);
            Json vol = Json::array();
            for (std::uint32_t v : e.volume)
                vol.push(Json(v));
            rec["volume"] = std::move(vol);
            if (t.recordsTargets()) {
                Json targets = Json::array();
                for (const CoreSet &s : e.missTargets)
                    targets.push(Json(s.toHex()));
                rec["miss_targets"] = std::move(targets);
            }
            per_core.push(std::move(rec));
        }
        epochs.push(std::move(per_core));
    }
    doc["epochs"] = std::move(epochs);

    Json whole = Json::array();
    for (unsigned c = 0; c < t.numCores(); ++c) {
        Json row = Json::array();
        for (std::uint64_t v : t.wholeRunVolume(c))
            row.push(u64ToJson(v));
        whole.push(std::move(row));
    }
    doc["whole_run_volume"] = std::move(whole);

    Json pcs = Json::array();
    for (unsigned c = 0; c < t.numCores(); ++c) {
        Json per_core = Json::array();
        for (const auto &[pc, vol] : t.pcVolume(c)) {
            Json entry = Json::array();
            entry.push(u64ToJson(pc));
            Json row = Json::array();
            for (std::uint32_t v : vol)
                row.push(Json(v));
            entry.push(std::move(row));
            per_core.push(std::move(entry));
        }
        pcs.push(std::move(per_core));
    }
    doc["pc_volume"] = std::move(pcs);
    return doc;
}

bool
u32FromCount(std::uint64_t v, const char *what, std::uint32_t &out,
             std::string &err)
{
    if (v > std::numeric_limits<std::uint32_t>::max()) {
        err = std::string(what) + " exceeds 32 bits";
        return false;
    }
    out = static_cast<std::uint32_t>(v);
    return true;
}

bool
volumeFromJson(const Json &j, unsigned n_cores, const char *what,
               std::vector<std::uint32_t> &out, std::string &err)
{
    if (!j.isArray() || j.size() != n_cores) {
        err = std::string(what) + " is not a per-core array";
        return false;
    }
    out.assign(n_cores, 0);
    for (unsigned i = 0; i < n_cores; ++i) {
        std::uint64_t v = 0;
        if (!countFromNumber(j.items()[i], what, v, err) ||
            !u32FromCount(v, what, out[i], err))
            return false;
    }
    return true;
}

bool
coreSetFromJson(const Json &j, CoreSet &out, std::string &err)
{
    if (!j.isString()) {
        err = "miss target is not a hex string";
        return false;
    }
    const std::string &hex = j.asString();
    // Pre-validate: CoreSet::fromHex() is fatal on malformed input,
    // and a corrupt store entry must decode-fail, not abort.
    if (hex.empty() || hex.size() > CoreSet::nWords * 16 ||
        hex.find_first_not_of("0123456789abcdefABCDEF") !=
            std::string::npos) {
        err = "malformed miss-target hex string '" + hex + "'";
        return false;
    }
    out = CoreSet::fromHex(hex);
    return true;
}

bool
traceFromJson(const Json &doc, std::unique_ptr<CommTrace> &out,
              std::string &err)
{
    if (!doc.isObject()) {
        err = "trace payload is not an object";
        return false;
    }
    std::uint64_t n_cores_raw = 0;
    if (!getCount(doc, "num_cores", n_cores_raw, err))
        return false;
    if (n_cores_raw == 0 || n_cores_raw > maxCores) {
        err = "implausible trace core count " +
            std::to_string(n_cores_raw);
        return false;
    }
    const auto n_cores = static_cast<unsigned>(n_cores_raw);
    const Json *rt = need(doc, "record_targets", err);
    if (rt == nullptr)
        return false;
    if (rt->kind() != Json::Kind::boolean) {
        err = "field 'record_targets' is not a boolean";
        return false;
    }
    const bool record_targets = rt->asBool();
    std::uint64_t total_misses = 0;
    std::uint64_t total_comm = 0;
    if (!getCount(doc, "total_misses", total_misses, err) ||
        !getCount(doc, "total_comm_misses", total_comm, err))
        return false;

    const Json *epochs_doc = need(doc, "epochs", err);
    if (epochs_doc == nullptr)
        return false;
    if (!epochs_doc->isArray() || epochs_doc->size() != n_cores) {
        err = "field 'epochs' is not a per-core array";
        return false;
    }
    std::vector<std::vector<EpochRecord>> epochs(n_cores);
    for (unsigned c = 0; c < n_cores; ++c) {
        const Json &per_core = epochs_doc->items()[c];
        if (!per_core.isArray()) {
            err = "per-core epoch list is not an array";
            return false;
        }
        for (const Json &rec : per_core.items()) {
            EpochRecord e(n_cores);
            e.core = static_cast<CoreId>(c);
            std::uint64_t bt = 0;
            if (!getCount(rec, "begin_type", bt, err))
                return false;
            if (bt > static_cast<std::uint64_t>(
                         SyncType::broadcastWake)) {
                err = "unknown sync type " + std::to_string(bt);
                return false;
            }
            e.beginType = static_cast<SyncType>(bt);
            if (!getU64Field(rec, "static_id", e.staticId, err) ||
                !getU64Field(rec, "dynamic_id", e.dynamicId, err))
                return false;
            std::uint64_t v = 0;
            if (!getCount(rec, "misses", v, err) ||
                !u32FromCount(v, "misses", e.misses, err) ||
                !getCount(rec, "comm_misses", v, err) ||
                !u32FromCount(v, "comm_misses", e.commMisses, err))
                return false;
            const Json *vol = need(rec, "volume", err);
            if (vol == nullptr ||
                !volumeFromJson(*vol, n_cores, "epoch volume",
                                e.volume, err))
                return false;
            if (record_targets) {
                const Json *targets = need(rec, "miss_targets", err);
                if (targets == nullptr)
                    return false;
                if (!targets->isArray()) {
                    err = "field 'miss_targets' is not an array";
                    return false;
                }
                for (const Json &s : targets->items()) {
                    CoreSet set;
                    if (!coreSetFromJson(s, set, err))
                        return false;
                    e.missTargets.push_back(set);
                }
            }
            epochs[c].push_back(std::move(e));
        }
    }

    const Json *whole_doc = need(doc, "whole_run_volume", err);
    if (whole_doc == nullptr)
        return false;
    if (!whole_doc->isArray() || whole_doc->size() != n_cores) {
        err = "field 'whole_run_volume' is not a per-core array";
        return false;
    }
    std::vector<std::vector<std::uint64_t>> whole(
        n_cores, std::vector<std::uint64_t>(n_cores, 0));
    for (unsigned c = 0; c < n_cores; ++c) {
        const Json &row = whole_doc->items()[c];
        if (!row.isArray() || row.size() != n_cores) {
            err = "whole-run volume row is not a per-core array";
            return false;
        }
        for (unsigned t = 0; t < n_cores; ++t) {
            if (!u64FromJson(row.items()[t], "whole-run volume",
                             whole[c][t], err))
                return false;
        }
    }

    const Json *pcs_doc = need(doc, "pc_volume", err);
    if (pcs_doc == nullptr)
        return false;
    if (!pcs_doc->isArray() || pcs_doc->size() != n_cores) {
        err = "field 'pc_volume' is not a per-core array";
        return false;
    }
    std::vector<CommTrace::PcVolumeMap> pc_volume(n_cores);
    for (unsigned c = 0; c < n_cores; ++c) {
        const Json &per_core = pcs_doc->items()[c];
        if (!per_core.isArray()) {
            err = "per-core pc-volume list is not an array";
            return false;
        }
        for (const Json &entry : per_core.items()) {
            if (!entry.isArray() || entry.size() != 2) {
                err = "pc-volume entry is not a [pc, volumes] pair";
                return false;
            }
            Pc pc = 0;
            std::vector<std::uint32_t> vol;
            if (!u64FromJson(entry.items()[0], "pc", pc, err) ||
                !volumeFromJson(entry.items()[1], n_cores,
                                "pc volume", vol, err))
                return false;
            pc_volume[c][pc] = std::move(vol);
        }
    }

    out = std::make_unique<CommTrace>(CommTrace::restore(
        n_cores, record_targets, std::move(epochs), std::move(whole),
        std::move(pc_volume), total_misses, total_comm));
    return true;
}

} // namespace

Json
resultToJson(const ExperimentResult &res)
{
    const RunResult &run = res.run;
    Json doc = Json::object();
    doc["ticks"] = Json(run.ticks);
    doc["events_executed"] = Json(run.eventsExecuted);
    doc["predictor_storage_bits"] = Json(run.predictorStorageBits);
    doc["predictor_table_accesses"] =
        Json(run.predictorTableAccesses);
    doc["indirections_avoided"] = Json(run.indirectionsAvoided);
    doc["energy"] = Json(res.energy);

    Json mem = Json::object();
#define SPP_PUT_COUNTER(f) mem[#f] = Json(run.mem.f.value());
    SPP_MEM_COUNTER_FIELDS(SPP_PUT_COUNTER)
#undef SPP_PUT_COUNTER
#define SPP_PUT_AVERAGE(f) mem[#f] = averageToJson(run.mem.f);
    SPP_MEM_AVERAGE_FIELDS(SPP_PUT_AVERAGE)
#undef SPP_PUT_AVERAGE
    Json by_source = Json::array();
    for (std::uint64_t v : run.mem.sufficientBySource)
        by_source.push(Json(v));
    mem["sufficientBySource"] = std::move(by_source);
    doc["mem"] = std::move(mem);

    Json noc = Json::object();
#define SPP_PUT_COUNTER(f) noc[#f] = Json(run.noc.f.value());
    SPP_NOC_COUNTER_FIELDS(SPP_PUT_COUNTER)
#undef SPP_PUT_COUNTER
    noc["packetLatency"] = averageToJson(run.noc.packetLatency);
    Json by_class = Json::array();
    for (std::uint64_t v : run.noc.bytesByClass)
        by_class.push(Json(v));
    noc["bytesByClass"] = std::move(by_class);
    doc["noc"] = std::move(noc);

    Json sync = Json::object();
#define SPP_PUT_COUNTER(f) sync[#f] = Json(run.sync.f.value());
    SPP_SYNC_COUNTER_FIELDS(SPP_PUT_COUNTER)
#undef SPP_PUT_COUNTER
    doc["sync"] = std::move(sync);

    Json sp = Json::object();
#define SPP_PUT_COUNTER(f) sp[#f] = Json(run.sp.f.value());
    SPP_SP_COUNTER_FIELDS(SPP_PUT_COUNTER)
#undef SPP_PUT_COUNTER
    doc["sp"] = std::move(sp);

    doc["trace"] = res.trace ? traceToJson(*res.trace) : Json();
    return doc;
}

bool
resultFromJson(const Json &doc, ExperimentResult &out,
               std::string &err)
{
    if (!doc.isObject()) {
        err = "result payload is not an object";
        return false;
    }
    out = ExperimentResult{};
    RunResult &run = out.run;
    std::uint64_t bits = 0;
    if (!getCount(doc, "ticks", run.ticks, err) ||
        !getCount(doc, "events_executed", run.eventsExecuted, err) ||
        !getCount(doc, "predictor_storage_bits", bits, err) ||
        !getCount(doc, "predictor_table_accesses",
                  run.predictorTableAccesses, err) ||
        !getCount(doc, "indirections_avoided",
                  run.indirectionsAvoided, err) ||
        !getDouble(doc, "energy", out.energy, err))
        return false;
    run.predictorStorageBits = bits;

    const Json *mem = need(doc, "mem", err);
    if (mem == nullptr)
        return false;
#define SPP_GET_COUNTER(f)                                            \
    if (!getCounter(*mem, #f, run.mem.f, err))                        \
        return false;
    SPP_MEM_COUNTER_FIELDS(SPP_GET_COUNTER)
#undef SPP_GET_COUNTER
#define SPP_GET_AVERAGE(f)                                            \
    if (!getAverage(*mem, #f, run.mem.f, err))                        \
        return false;
    SPP_MEM_AVERAGE_FIELDS(SPP_GET_AVERAGE)
#undef SPP_GET_AVERAGE
    if (!getU64Array(*mem, "sufficientBySource",
                     run.mem.sufficientBySource, err))
        return false;

    const Json *noc = need(doc, "noc", err);
    if (noc == nullptr)
        return false;
#define SPP_GET_COUNTER(f)                                            \
    if (!getCounter(*noc, #f, run.noc.f, err))                        \
        return false;
    SPP_NOC_COUNTER_FIELDS(SPP_GET_COUNTER)
#undef SPP_GET_COUNTER
    if (!getAverage(*noc, "packetLatency", run.noc.packetLatency,
                    err) ||
        !getU64Array(*noc, "bytesByClass", run.noc.bytesByClass,
                     err))
        return false;

    const Json *sync = need(doc, "sync", err);
    if (sync == nullptr)
        return false;
#define SPP_GET_COUNTER(f)                                            \
    if (!getCounter(*sync, #f, run.sync.f, err))                      \
        return false;
    SPP_SYNC_COUNTER_FIELDS(SPP_GET_COUNTER)
#undef SPP_GET_COUNTER

    const Json *sp = need(doc, "sp", err);
    if (sp == nullptr)
        return false;
#define SPP_GET_COUNTER(f)                                            \
    if (!getCounter(*sp, #f, run.sp.f, err))                          \
        return false;
    SPP_SP_COUNTER_FIELDS(SPP_GET_COUNTER)
#undef SPP_GET_COUNTER

    const Json *trace = need(doc, "trace", err);
    if (trace == nullptr)
        return false;
    if (!trace->isNull() && !traceFromJson(*trace, out.trace, err))
        return false;
    return true;
}

} // namespace spp
