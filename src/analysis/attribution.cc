#include "analysis/attribution.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <tuple>

#include "analysis/report.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "telemetry/options.hh"

namespace spp {

namespace {

std::string
hexAddr(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

AttributionOptions
AttributionOptions::fromEnv()
{
    AttributionOptions opts;
    if (const char *dir = std::getenv("SPP_ATTRIBUTION"))
        opts.dir = dir;
    return opts;
}

// ---------------------------------------------------------------------
// Key / Cell
// ---------------------------------------------------------------------

bool
AttributionProfiler::Key::operator<(const Key &o) const
{
    return std::tie(syncType, syncStatic, syncEpoch, region, core) <
        std::tie(o.syncType, o.syncStatic, o.syncEpoch, o.region,
                 o.core);
}

std::size_t
AttributionProfiler::KeyHash::operator()(const Key &k) const
{
    // FNV-1a over the key fields; quality only affects bucket
    // spread, never results (eviction and output are sort-ordered).
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(k.syncType));
    mix(k.syncStatic);
    mix(k.syncEpoch);
    mix(k.region);
    mix(k.core);
    return static_cast<std::size_t>(h);
}

void
AttributionProfiler::Cell::fold(const Cell &o)
{
    correct += o.correct;
    over += o.over;
    under += o.under;
    unpredicted += o.unpredicted;
    wastedBytes += o.wastedBytes;
    underLatencyTicks += o.underLatencyTicks;
    messages += o.messages;
    nocBytes += o.nocBytes;
}

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

AttributionProfiler::AttributionProfiler(AttributionOptions opts)
    : opts_(std::move(opts))
{
    SPP_ASSERT(opts_.topK > 0, "attribution topK must be positive");
    store_.reserve(9 * opts_.topK);
}

void
AttributionProfiler::attach(CmpSystem &sys)
{
    cores_.resize(sys.config().numCores);
    sys.memSys().setAttributionSink(this);
    sys.syncManager().addListener(this);
}

void
AttributionProfiler::onSyncPoint(CoreId core, const SyncPointInfo &info)
{
    EpochCtx &ctx = cores_[core];
    ctx.type = info.type;
    ctx.staticId = info.staticId;
    ++ctx.epoch;
    ctx.lastCell = nullptr;     // Memo keys on the current epoch.
}

AttributionProfiler::Cell &
AttributionProfiler::cellFor(CoreId core, Addr addr)
{
    EpochCtx &ctx = cores_[core];
    const Addr region = addr >> regionShift;
    if (ctx.lastCell != nullptr && ctx.lastRegion == region)
        return *ctx.lastCell;
    Key k;
    k.syncType = ctx.type;
    k.syncStatic = ctx.staticId;
    k.syncEpoch = ctx.epoch;
    k.region = region;
    k.core = core;
    Cell *cell = &store_[k];
    // Compact with generous slack: each pass pays O(topK) map
    // rebuilding, so evicting 8*topK keys per pass keeps the
    // amortized per-key cost constant (the profiler overhead budget,
    // DESIGN.md §12). Memory stays bounded at 9*topK live cells.
    if (store_.size() >= 9 * opts_.topK) {
        compact();
        // The compaction may have evicted the entry we just touched;
        // re-insert so the caller's reference stays valid.
        cell = &store_[k];
    }
    // Node-based map: the pointer stays valid across inserts; only
    // compact() moves cells, and it clears every memo.
    ctx.lastRegion = region;
    ctx.lastCell = cell;
    return *cell;
}

void
AttributionProfiler::onMissResolved(CoreId core, Addr line,
                                    const AccessOutcome &out,
                                    std::uint64_t wasted_bytes)
{
    Cell d;
    if (!out.pred.valid()) {
        ++d.unpredicted;
    } else if (out.communicating && !out.predSufficient) {
        // The paper's costly case: the prediction did not cover the
        // miss and the access ate the full indirection latency.
        ++d.under;
        d.underLatencyTicks +=
            static_cast<std::uint64_t>(out.latency());
    } else if (wasted_bytes > 0) {
        ++d.over;
    } else {
        ++d.correct;
    }
    d.wastedBytes += wasted_bytes;

    cellFor(core, line).fold(d);
    totals_.fold(d);
}

void
AttributionProfiler::onMessageSent(CoreId requester, Addr line,
                                   unsigned bytes)
{
    // The hottest hook (one call per protocol message): increment
    // the two touched fields directly instead of folding a full
    // delta cell twice.
    Cell &cell = cellFor(requester, line);
    ++cell.messages;
    cell.nocBytes += bytes;
    ++totals_.messages;
    totals_.nocBytes += bytes;
}

void
AttributionProfiler::compact()
{
    std::vector<std::pair<Key, Cell>> all;
    all.reserve(store_.size());
    // Partitioned below under a strict total order, so the surviving
    // set is independent of hash iteration order.
    // lint: allow(unordered-iter) — deterministically partitioned.
    for (const auto &kv : store_)
        all.push_back(kv);
    // nth_element suffices: the total order (score desc, key asc)
    // makes the top-K *partition* unique even though the order
    // within each side is unspecified — and every output path
    // re-sorts through sortedEntries() anyway.
    const auto better = [](const auto &a, const auto &b) {
        const std::uint64_t sa = a.second.score();
        const std::uint64_t sb = b.second.score();
        if (sa != sb)
            return sa > sb;
        return a.first < b.first;
    };
    std::nth_element(all.begin(), all.begin() +
                     static_cast<std::ptrdiff_t>(opts_.topK),
                     all.end(), better);
    store_.clear();
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (i < opts_.topK) {
            store_.emplace(all[i].first, all[i].second);
        } else {
            evicted_.fold(all[i].second);
            ++evictions_;
        }
    }
    // Every memoized cell pointer just moved or died.
    for (EpochCtx &ctx : cores_)
        ctx.lastCell = nullptr;
}

std::vector<std::pair<AttributionProfiler::Key,
                      AttributionProfiler::Cell>>
AttributionProfiler::sortedEntries() const
{
    std::vector<std::pair<Key, Cell>> all;
    all.reserve(store_.size());
    // The snapshot is fully sorted below, so the result is
    // independent of hash iteration order.
    // lint: allow(unordered-iter) — sorted before use.
    for (const auto &kv : store_)
        all.push_back(kv);
    std::sort(all.begin(), all.end(),
              [](const auto &a, const auto &b) {
                  const std::uint64_t sa = a.second.score();
                  const std::uint64_t sb = b.second.score();
                  if (sa != sb)
                      return sa > sb;
                  return a.first < b.first;
              });
    return all;
}

namespace {

Json
cellJson(const AttributionProfiler::Cell &c)
{
    Json j = Json::object();
    j["correct"] = Json(c.correct);
    j["over"] = Json(c.over);
    j["under"] = Json(c.under);
    j["unpredicted"] = Json(c.unpredicted);
    j["wasted_bytes"] = Json(c.wastedBytes);
    j["under_ticks"] = Json(c.underLatencyTicks);
    j["messages"] = Json(c.messages);
    j["noc_bytes"] = Json(c.nocBytes);
    j["score"] = Json(c.score());
    return j;
}

} // namespace

Json
AttributionProfiler::toJson() const
{
    const auto all = sortedEntries();

    Json doc = Json::object();
    doc["schema"] = Json("spp.attribution.v1");
    Json jopts = Json::object();
    jopts["top_k"] = Json(opts_.topK);
    jopts["region_bytes"] = Json(regionBytes);
    doc["options"] = std::move(jopts);

    // The report bound is topK; the live store can briefly hold up
    // to 2*topK-1 keys between compactions, so fold the tail into
    // the overflow summary exactly as an eviction would.
    Cell overflow = evicted_;
    std::uint64_t overflow_keys = evictions_;
    Json entries = Json::array();
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (i >= opts_.topK) {
            overflow.fold(all[i].second);
            ++overflow_keys;
            continue;
        }
        const Key &k = all[i].first;
        Json e = Json::object();
        e["rank"] = Json(i + 1);
        e["sync"] = Json(strfmt("{}#{}", toString(k.syncType),
                                hexAddr(k.syncStatic)));
        e["sync_type"] = Json(toString(k.syncType));
        e["sync_static"] = Json(hexAddr(k.syncStatic));
        e["sync_epoch"] = Json(k.syncEpoch);
        e["region"] = Json(hexAddr(k.region << regionShift));
        e["core"] = Json(k.core);
        e["stats"] = cellJson(all[i].second);
        entries.push(std::move(e));
    }
    doc["entries"] = std::move(entries);
    doc["totals"] = cellJson(totals_);
    Json ov = Json::object();
    ov["keys"] = Json(overflow_keys);
    ov["stats"] = cellJson(overflow);
    doc["overflow"] = std::move(ov);
    return doc;
}

std::string
AttributionProfiler::textReport(std::size_t topN) const
{
    const auto all = sortedEntries();

    std::string out = strfmt(
        "attribution: {} decisions ({} correct, {} over, {} under, "
        "{} unpredicted), {} wasted B, {} under ticks, {} msgs, "
        "{} NoC B, {} keys ({} evicted)\n",
        totals_.decisions(), totals_.correct, totals_.over,
        totals_.under, totals_.unpredicted, totals_.wastedBytes,
        totals_.underLatencyTicks, totals_.messages, totals_.nocBytes,
        store_.size(), evictions_);

    Table t({"rank", "sync", "epoch", "region", "core", "corr",
             "over", "under", "unpred", "wasted B", "under tk",
             "msgs", "noc B", "score"});
    const std::size_t n = std::min(topN, all.size());
    for (std::size_t i = 0; i < n; ++i) {
        const Key &k = all[i].first;
        const Cell &c = all[i].second;
        t.cell(std::uint64_t{i + 1})
            .cell(strfmt("{}#{}", toString(k.syncType),
                         hexAddr(k.syncStatic)))
            .cell(k.syncEpoch)
            .cell(hexAddr(k.region << regionShift))
            .cell(k.core)
            .cell(c.correct)
            .cell(c.over)
            .cell(c.under)
            .cell(c.unpredicted)
            .cell(c.wastedBytes)
            .cell(c.underLatencyTicks)
            .cell(c.messages)
            .cell(c.nocBytes)
            .cell(c.score())
            .endRow();
    }
    return out + t.str();
}

void
AttributionProfiler::writeArtifacts(const std::string &label) const
{
    std::error_code ec;
    std::filesystem::create_directories(opts_.dir, ec);
    if (ec) {
        SPP_FATAL("cannot create attribution directory '{}': {}",
                  opts_.dir, ec.message());
    }
    const std::string base =
        opts_.dir + "/" + sanitizeFileLabel(label);

    {
        const std::string path = base + ".attribution.json";
        std::ofstream os(path);
        if (!os)
            SPP_FATAL("cannot write '{}'", path);
        toJson().write(os, 0);
        os << '\n';
    }
    {
        const std::string path = base + ".attribution.txt";
        std::ofstream os(path);
        if (!os)
            SPP_FATAL("cannot write '{}'", path);
        os << textReport();
    }
}

} // namespace spp
