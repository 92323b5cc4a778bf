#include "telemetry/telemetry.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

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
 */
struct RunTelemetry::EpochRecorder : SyncListener
{
    ChromeTraceWriter *trace = nullptr;
    const EventQueue *eq = nullptr;

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
        Json args = Json::object();
        args["staticId"] = Json(o.staticId);
        args["dynamicId"] = Json(o.dynamicId);
        trace->duration(strfmt("{}#{}", toString(o.type), o.staticId),
                        "epoch", core, o.begin, now, std::move(args));
        ++epochsClosed;
        o.valid = false;
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

    trace_ = std::make_unique<ChromeTraceWriter>();
    trace_->setProcessName(label_);
    for (unsigned c = 0; c < sys.config().numCores; ++c)
        trace_->setThreadName(c, strfmt("core {}", c));

    epochs_ = std::make_unique<EpochRecorder>();
    epochs_->trace = trace_.get();
    epochs_->eq = &sys.eventQueue();
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
}

void
RunTelemetry::finish(const RunResult &result)
{
    if (sys_ == nullptr || finished_)
        return;
    finished_ = true;

    const Tick end = sys_->eventQueue().curTick();
    for (CoreId c = 0; c < epochs_->open.size(); ++c)
        epochs_->closeEpoch(c, end);

    manifest_.endPhase();

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
    files["trace"] = Json(label_ + ".trace.json");
    files["trace_events"] = Json(trace_->events());
    files["trace_dropped"] = Json(trace_->dropped());
    files["epochs"] = Json(epochs_->epochsClosed);
    manifest_.set("telemetry", std::move(files));
    manifest_.write(manifestPath());
}

} // namespace spp
