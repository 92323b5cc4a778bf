#include "service/result_store.hh"

#include <utility>

#include "common/logging.hh"
#include "service/result_codec.hh"

namespace spp {

ResultStoreStats &
resultStoreStats()
{
    static ResultStoreStats stats;
    return stats;
}

ContentKey
resultKey(const std::string &workload, const Config &cfg,
          double scale, bool collect_trace, bool record_targets,
          const std::string &git)
{
    ContentKey key("result_v1");
    key.field("workload", workload)
        .field("scale", scale)
        .field("trace", collect_trace ? 1 : 0)
        .field("targets", record_targets ? 1 : 0)
        .field("git", git)
        .field("config", configDescribe(cfg));
    return key;
}

std::string
resultPath(const std::string &dir, const std::string &workload,
           std::uint64_t key_hash)
{
    return contentStorePath(dir, workload, key_hash,
                            ".sppresult.json");
}

bool
resultCacheable(const ExperimentConfig &cfg)
{
    // prepare() mutates the built system invisibly to the key, and
    // a replayed trace file is an input the key does not hash;
    // telemetry, attribution and the coherence checkers all do work
    // a cache hit would silently skip.
    return !cfg.prepare && !cfg.telemetry.enabled() &&
        !cfg.attribution.enabled() && cfg.replayTrace.empty() &&
        !cfg.checkCoherence;
}

namespace {

/** Parse + verify one entry; false with @p err on any defect. */
bool
decodeEntry(const std::vector<std::uint8_t> &bytes,
            const std::string &key_preimage, ExperimentResult &res,
            std::string &err)
{
    const auto doc = Json::parse(std::string_view(
        reinterpret_cast<const char *>(bytes.data()), bytes.size()));
    if (!doc) {
        err = "not a well-formed JSON document";
        return false;
    }
    const Json *schema = doc->find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->asString() != resultStoreSchema) {
        err = std::string("missing or unexpected schema (want ") +
            resultStoreSchema + ")";
        return false;
    }
    // The stored preimage must match exactly: this turns both hash
    // collisions and renamed/copied files into detected corruption
    // instead of silently serving another cell's numbers.
    const Json *key = doc->find("key");
    if (key == nullptr || !key->isString()) {
        err = "missing key preimage";
        return false;
    }
    if (key->asString() != key_preimage) {
        err = "key mismatch: entry records '" + key->asString() + "'";
        return false;
    }
    const Json *result = doc->find("result");
    if (result == nullptr) {
        err = "missing result payload";
        return false;
    }
    return resultFromJson(*result, res, err);
}

} // namespace

bool
loadCachedResult(const std::string &path,
                 const std::string &key_preimage,
                 ExperimentResult &res)
{
    std::vector<std::uint8_t> bytes;
    std::string err;
    if (!readFileBytes(path, bytes, err)) {
        // Absent is the normal cold case; anything else (present but
        // unreadable) is indistinguishable from absent here and is
        // likewise simulated.
        ++resultStoreStats().misses;
        return false;
    }
    if (!decodeEntry(bytes, key_preimage, res, err)) {
        warn("result store: {}: {}; re-simulating", path, err);
        ++resultStoreStats().corrupt;
        return false;
    }
    ++resultStoreStats().hits;
    return true;
}

void
storeResult(const std::string &path, const std::string &key_preimage,
            const ExperimentResult &res)
{
    Json doc = Json::object();
    doc["schema"] = Json(resultStoreSchema);
    doc["key"] = Json(key_preimage);
    doc["result"] = resultToJson(res);
    std::string err;
    if (!writeFileTextAtomic(path, doc.dump() + "\n", err))
        warn("result store: cannot write {}: {}", path, err);
}

} // namespace spp
