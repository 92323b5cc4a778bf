#include "telemetry/telemetry.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

#include "common/config.hh"
#include "common/format.hh"
#include "common/logging.hh"

namespace spp {

namespace {

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

TelemetryOptions
TelemetryOptions::fromEnv()
{
    TelemetryOptions opts;
    if (const char *dir = std::getenv("SPP_TELEMETRY"))
        opts.dir = dir;
    if (const char *period = std::getenv("SPP_TELEMETRY_PERIOD")) {
        const std::string err =
            parseUnsigned("SPP_TELEMETRY_PERIOD", period, 1,
                          std::numeric_limits<Tick>::max(),
                          opts.samplePeriod);
        if (!err.empty())
            SPP_FATAL("{}", err);
    }
    return opts;
}

std::string
sanitizeFileLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        if (!ok)
            c = '_';
    }
    return out.empty() ? std::string("run") : out;
}

// ---------------------------------------------------------------------
// Epoch timeline recorder
// ---------------------------------------------------------------------

/**
 * SyncListener turning the per-core sync-point stream into Chrome
 * duration events: each epoch [sync-point, next sync-point) becomes
 * one "X" event on the core's track, named by the sync type and
 * static ID that *began* it (the paper's epoch naming).
 *
 * With an epoch annotator installed, every closed epoch additionally
 * carries an "attr" args object, and its wasted_bytes / noc_bytes
 * fields become per-sync-point counter series (one pair of tracks
 * per distinct sync-point name, capped so a pathological workload
 * cannot drown the timeline; drops are counted in the manifest).
 */
struct RunTelemetry::EpochRecorder : SyncListener
{
    ChromeTraceWriter *trace = nullptr;
    const EventQueue *eq = nullptr;
    const EpochAnnotator *annotator = nullptr;

    /** Per-sync-point counter-track cap (each name costs two
     * tracks). */
    static constexpr std::size_t maxAttrTracks = 64;
    std::set<std::string> attrTracks;
    std::uint64_t attrTracksDropped = 0;

    struct Open
    {
        bool valid = false;
        Tick begin = 0;
        SyncType type = SyncType::threadStart;
        std::uint64_t staticId = 0;
        std::uint64_t dynamicId = 0;
    };
    std::vector<Open> open;
    std::uint64_t epochsClosed = 0;

    void
    onSyncPoint(CoreId core, const SyncPointInfo &info) override
    {
        const Tick now = eq->curTick();
        closeEpoch(core, now);
        trace->instant(toString(info.type), "sync", core, now);
        Open &o = open[core];
        o.valid = true;
        o.begin = now;
        o.type = info.type;
        o.staticId = info.staticId;
        o.dynamicId = info.dynamicId;
    }

    void
    closeEpoch(CoreId core, Tick now)
    {
        Open &o = open[core];
        if (!o.valid)
            return;
        const std::string name =
            strfmt("{}#{}", toString(o.type), o.staticId);
        Json args = Json::object();
        args["staticId"] = Json(o.staticId);
        args["dynamicId"] = Json(o.dynamicId);
        if (annotator != nullptr && *annotator) {
            Json attr = (*annotator)(core);
            emitAttrCounters(name, attr, now);
            args["attr"] = std::move(attr);
        }
        trace->duration(name, "epoch", core, o.begin, now,
                        std::move(args));
        ++epochsClosed;
        o.valid = false;
    }

    /** Per-sync-point cost series: the closing epoch's wasted and
     * NoC bytes, plotted at the close tick under the epoch name. */
    void
    emitAttrCounters(const std::string &name, const Json &attr,
                     Tick now)
    {
        if (attrTracks.find(name) == attrTracks.end()) {
            if (attrTracks.size() >= maxAttrTracks) {
                ++attrTracksDropped;
                return;
            }
            attrTracks.insert(name);
        }
        for (const char *field : {"wasted_bytes", "noc_bytes"}) {
            const Json *v = attr.find(field);
            if (v != nullptr && v->isNumber()) {
                trace->counter(strfmt("attr.{}.{}", name, field),
                               now, v->asNumber());
            }
        }
    }
};

// ---------------------------------------------------------------------
// RunTelemetry
// ---------------------------------------------------------------------

RunTelemetry::RunTelemetry(TelemetryOptions opts, std::string label)
    : opts_(std::move(opts)), label_(sanitizeFileLabel(label))
{
}

RunTelemetry::~RunTelemetry() = default;

std::string
RunTelemetry::base() const
{
    return opts_.dir + "/" + label_;
}

void
RunTelemetry::registerMetrics(CmpSystem &sys)
{
    MetricRegistry reg;
    const MemSys &mem = sys.memSys();
    const MemSysStats &ms = mem.stats();
    const EventQueue &eq = sys.eventQueue();

    reg.addGauge("events", [&eq] {
        return static_cast<double>(eq.executed());
    });

    reg.addCounter("mem.accesses", ms.accesses);
    reg.addCounter("mem.misses", ms.misses);
    reg.addCounter("mem.comm_misses", ms.communicatingMisses);
    reg.addCounter("mem.offchip_misses", ms.offChipMisses);
    reg.addCounter("mem.writebacks", ms.writebacks);

    reg.addCounter("pred.attempted", ms.predictionsAttempted);
    reg.addCounter("pred.sufficient", ms.predictionsSufficient);
    reg.addCounter("pred.on_noncomm", ms.predictionsOnNonComm);
    reg.addCounter("pred.suppressed", ms.predictionsSuppressed);

    reg.addGauge("locks.outstanding", [&mem] {
        return static_cast<double>(mem.outstandingLineLocks());
    });

    // Event-kernel internals: calendar-queue depth/occupancy and
    // freelist-pool efficiency (hit rate 1.0 = steady state without
    // allocator traffic).
    reg.addGauge("eq.near_pending", [&eq] {
        return static_cast<double>(eq.nearPending());
    });
    reg.addGauge("eq.far_pending", [&eq] {
        return static_cast<double>(eq.farPending());
    });
    reg.addGauge("eq.occupied_slots", [&eq] {
        return static_cast<double>(eq.occupiedSlots());
    });
    reg.addGauge("pool.msg.hit_rate",
                 [&mem] { return mem.msgPoolStats().hitRate(); });
    reg.addGauge("pool.msg.live", [&mem] {
        return static_cast<double>(mem.msgPoolStats().live);
    });
    reg.addGauge("pool.wb.hit_rate",
                 [&mem] { return mem.wbPoolStats().hitRate(); });
    reg.addGauge("pool.txn.hit_rate",
                 [&mem] { return mem.txnPoolStats().hitRate(); });
    reg.addGauge("pool.txn.live", [&mem] {
        return static_cast<double>(mem.txnPoolStats().live);
    });

    const NocStats &noc = sys.mesh().stats();
    reg.addCounter("noc.packets", noc.packets);
    reg.addCounter("noc.flit_bytes", noc.flitBytes);

    const SyncStats &sync = sys.syncManager().stats();
    reg.addCounter("sync.sync_points", sync.syncPoints);
    reg.addCounter("sync.lock_acquisitions", sync.lockAcquisitions);

    if (const SpPredictor *sp = sys.spPredictor()) {
        const SpStats &ss = sp->stats();
        reg.addCounter("sp.epochs", ss.epochsStarted);
        reg.addCounter("sp.noisy_epochs", ss.noisyEpochs);
        reg.addCounter("sp.recoveries", ss.recoveries);
    }

    // Per-core series. The CoreMemStats vector is sized once at
    // MemSys construction, so the cell addresses are stable.
    const auto &cores = mem.coreStats();
    for (unsigned c = 0; c < cores.size(); ++c) {
        reg.addCell(strfmt("mem.core{}.misses", c), cores[c].misses);
        reg.addCell(strfmt("mem.core{}.comm_misses", c),
                    cores[c].commMisses);
    }
    if (const SpPredictor *sp = sys.spPredictor()) {
        for (unsigned c = 0; c < cores.size(); ++c) {
            reg.addGauge(strfmt("sp.core{}.comm_volume", c),
                         [sp, c] {
                             return static_cast<double>(
                                 sp->commVolume(c));
                         });
        }
    }

    // Per-link utilization (cumulative busy ticks; diff rows and
    // divide by the sample period for a utilization fraction).
    const auto &links = sys.mesh().linkBusyTicks();
    for (std::size_t i = 0; i < links.size(); ++i)
        reg.addCell(strfmt("noc.link{}.busy_ticks", i), links[i]);

    if (extra_metrics_)
        extra_metrics_(reg);

    sampler_ = std::make_unique<Sampler>(std::move(reg),
                                         opts_.samplePeriod);
    sampler_->attach(sys.eventQueue());
}

void
RunTelemetry::attach(CmpSystem &sys)
{
    if (!enabled())
        return;
    SPP_ASSERT(sys_ == nullptr, "telemetry attached twice");
    sys_ = &sys;

    std::error_code ec;
    std::filesystem::create_directories(opts_.dir, ec);
    if (ec) {
        SPP_FATAL("cannot create telemetry directory '{}': {}",
                  opts_.dir, ec.message());
    }

    registerMetrics(sys);

    trace_ = std::make_unique<ChromeTraceWriter>();
    trace_->setProcessName(label_);
    for (unsigned c = 0; c < sys.config().numCores; ++c)
        trace_->setThreadName(c, strfmt("core {}", c));

    epochs_ = std::make_unique<EpochRecorder>();
    epochs_->trace = trace_.get();
    epochs_->eq = &sys.eventQueue();
    epochs_->annotator = &epoch_annotator_;
    epochs_->open.resize(sys.config().numCores);
    sys.syncManager().addListener(epochs_.get());

    // Miss instants ride the access-observer chain so an existing
    // observer (CommTrace, tests) keeps working.
    ChromeTraceWriter *trace = trace_.get();
    auto prev = sys.accessObserver();
    sys.setAccessObserver(
        [trace, prev](CoreId core, Addr addr, Pc pc,
                      const AccessOutcome &out) {
            if (prev)
                prev(core, addr, pc, out);
            if (!out.miss())
                return;
            trace->instant(out.communicating ? "comm miss" : "miss",
                           "mem", core, out.completeTick);
        });

    const Config &cfg = sys.config();
    Json jcfg = Json::object();
    jcfg["hash"] = Json(hex64(configHash(cfg)));
    jcfg["describe"] = Json(configDescribe(cfg));
    jcfg["protocol"] = Json(toString(cfg.protocol));
    jcfg["predictor"] = Json(toString(cfg.predictor));
    jcfg["cores"] = Json(cfg.numCores);
    jcfg["seed"] = Json(cfg.seed);
    manifest_.set("label", Json(label_));
    manifest_.set("config", std::move(jcfg));
    manifest_.set("sample_period", Json(opts_.samplePeriod));
}

void
RunTelemetry::emitCounterTracks()
{
    // Aggregate series become Perfetto counter tracks; the per-core
    // and per-link columns stay CSV-only (hundreds of tracks would
    // drown the timeline).
    const MetricRegistry &reg = sampler_->registry();
    const auto &rows = sampler_->rows();
    for (std::size_t m = 0; m < reg.size(); ++m) {
        const std::string &name = reg.name(m);
        if (name.find(".core") != std::string::npos ||
            name.find(".link") != std::string::npos) {
            continue;
        }
        for (std::size_t r = 1; r < rows.size(); ++r) {
            const double v = reg.cumulative(m)
                ? sampler_->delta(r, m)
                : rows[r].values[m];
            trace_->counter(name, rows[r].tick, v);
        }
    }
}

void
RunTelemetry::finish(const RunResult &result)
{
    if (sys_ == nullptr || finished_)
        return;
    finished_ = true;

    sampler_->finalize();
    const Tick end = sys_->eventQueue().curTick();
    for (CoreId c = 0; c < epochs_->open.size(); ++c)
        epochs_->closeEpoch(c, end);
    emitCounterTracks();

    manifest_.endPhase();

    {
        std::ofstream os(seriesPath());
        if (!os)
            SPP_FATAL("cannot write '{}'", seriesPath());
        sampler_->writeCsv(os);
    }
    {
        std::ofstream os(tracePath());
        if (!os)
            SPP_FATAL("cannot write '{}'", tracePath());
        trace_->write(os);
    }

    Json summary = Json::object();
    summary["ticks"] = Json(result.ticks);
    summary["events"] = Json(result.eventsExecuted);
    summary["accesses"] = Json(result.mem.accesses.value());
    summary["misses"] = Json(result.mem.misses.value());
    summary["comm_misses"] =
        Json(result.mem.communicatingMisses.value());
    summary["pred_sufficient"] =
        Json(result.mem.predictionsSufficient.value());
    summary["noc_bytes"] = Json(result.noc.flitBytes.value());
    summary["sync_points"] = Json(result.sync.syncPoints.value());
    manifest_.set("result", std::move(summary));

    Json files = Json::object();
    files["series"] = Json(label_ + ".series.csv");
    files["trace"] = Json(label_ + ".trace.json");
    files["samples"] = Json(sampler_->rows().size());
    files["trace_events"] = Json(trace_->events());
    files["trace_dropped"] = Json(trace_->dropped());
    files["epochs"] = Json(epochs_->epochsClosed);
    if (epochs_->attrTracksDropped > 0)
        files["attr_tracks_dropped"] = Json(epochs_->attrTracksDropped);
    manifest_.set("telemetry", std::move(files));
    manifest_.write(manifestPath());
}

} // namespace spp
