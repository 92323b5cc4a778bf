#include "analysis/experiment.hh"

#include <cstdlib>
#include <optional>

#include "common/logging.hh"
#include "service/result_store.hh"
#include "telemetry/manifest.hh"
#include "telemetry/telemetry.hh"
#include "trace/codec.hh"
#include "trace/replay.hh"

namespace spp {

double
ExperimentResult::commMissFraction() const
{
    const auto misses = run.mem.misses.value();
    if (misses == 0)
        return 0.0;
    return static_cast<double>(run.mem.communicatingMisses.value()) /
        static_cast<double>(misses);
}

double
ExperimentResult::avgMissLatency() const
{
    return run.mem.missLatency.mean();
}

double
ExperimentResult::bytesPerMiss() const
{
    const auto misses = run.mem.misses.value();
    if (misses == 0)
        return 0.0;
    return static_cast<double>(run.noc.flitBytes.value()) /
        static_cast<double>(misses);
}

double
ExperimentResult::predictionAccuracy() const
{
    const auto comm = run.mem.communicatingMisses.value();
    if (comm == 0)
        return 0.0;
    return static_cast<double>(run.mem.predictionsSufficient.value()) /
        static_cast<double>(comm);
}

double
ExperimentResult::indirectionPct() const
{
    const double misses = static_cast<double>(run.mem.misses.value());
    const double comm =
        static_cast<double>(run.mem.communicatingMisses.value());
    const double sufficient =
        static_cast<double>(run.mem.predictionsSufficient.value());
    // Non-communicating misses never "indirect" to another cache; a
    // communicating miss avoids it when its prediction was
    // sufficient.
    return misses > 0 ? 100.0 * (comm - sufficient) / misses : 0.0;
}

ExperimentResult
runExperiment(const std::string &workload_name,
              const ExperimentConfig &xcfg)
{
    const Config &cfg = xcfg.config;

    // Consult the result store first: a warm entry short-circuits
    // the whole run. Keys hash the config plus everything else that
    // determines the result (workload, scale, trace flags, code
    // version); uncacheable cells (see resultCacheable()) fall
    // through to a normal live run.
    std::string result_path;
    std::string result_key;
    if (xcfg.resultStore.enabled()) {
        if (!resultCacheable(xcfg)) {
            ++resultStoreStats().bypasses;
        } else {
            cfg.validate();
            const ContentKey key = resultKey(
                workload_name, cfg, xcfg.scale, xcfg.collectTrace,
                xcfg.recordMissTargets, gitDescribe());
            result_key = key.describe();
            result_path = resultPath(xcfg.resultStore.dir,
                                     workload_name, key.hash());
            if (xcfg.resultStore.refresh) {
                ++resultStoreStats().misses;
            } else {
                ExperimentResult cached;
                if (loadCachedResult(result_path, result_key,
                                     cached))
                    return cached;
            }
        }
    }

    // A replayed run never consults the generator registry: the op
    // stream on disk is the workload (imported traces have no
    // registered generator at all).
    const std::string &trace_file = xcfg.replayTrace;
    const WorkloadSpec *spec = nullptr;
    std::shared_ptr<const TraceData> replay_data;
    if (trace_file.empty()) {
        spec = findWorkload(workload_name);
        if (!spec)
            SPP_FATAL("unknown workload '{}'", workload_name);
    } else {
        auto data = std::make_shared<TraceData>(
            loadTraceOrFatal(trace_file));
        const std::string err = traceReplayError(*data, cfg);
        if (!err.empty())
            SPP_FATAL("cannot replay {}: {}", trace_file, err);
        replay_data = std::move(data);
    }

    const std::string label = xcfg.telemetryLabel.empty()
        ? workload_name
        : xcfg.telemetryLabel;

    // Telemetry and attribution are fully inert unless a directory
    // was configured: the optional/pointer stays empty and the run
    // is bit-identical to an unobserved one.
    std::optional<RunTelemetry> telemetry;
    if (xcfg.telemetry.enabled()) {
        telemetry.emplace(xcfg.telemetry, label);
        telemetry->manifest().set("workload", Json(workload_name));
        if (replay_data)
            telemetry->manifest().set("trace_file",
                                      Json(trace_file));
        telemetry->manifest().beginPhase("build");
    }
    std::unique_ptr<AttributionProfiler> attrib;
    if (xcfg.attribution.enabled())
        attrib = std::make_unique<AttributionProfiler>(
            xcfg.attribution);

    CmpSystem sys(cfg);
    if (xcfg.prepare)
        xcfg.prepare(sys);

    ExperimentResult res;
    if (xcfg.collectTrace) {
        res.trace = std::make_unique<CommTrace>(
            cfg.numCores, xcfg.recordMissTargets);
        res.trace->attach(sys);
    }
    if (telemetry) {
        telemetry->attach(sys);
        telemetry->manifest().beginPhase("run");
    }
    if (attrib)
        attrib->attach(sys);

    if (replay_data) {
        res.run = sys.run(replayThreadFn(replay_data));
    } else {
        WorkloadParams params;
        params.scale = xcfg.scale;
        res.run = sys.run([spec, params](ThreadContext &ctx) {
            return spec->run(ctx, params);
        });
    }

    if (telemetry)
        telemetry->manifest().beginPhase("finalize");

    if (res.trace)
        res.trace->finalize();

    if (xcfg.checkCoherence) {
        sys.memSys().checkCoherence();
        sys.memSys().checkDirectory();
    }

    res.energy = EnergyModel{}.total(res.run.noc,
                                     res.run.mem.snoopLookups.value());
    if (telemetry)
        telemetry->finish(res.run);
    if (attrib) {
        attrib->writeArtifacts(label);
        res.attribution = std::move(attrib);
    }
    // Cold cell of an enabled store: populate (atomically) so the
    // next identical run is warm.
    if (!result_path.empty())
        storeResult(result_path, result_key, res);
    return res;
}

double
defaultBenchScale()
{
    const char *env = std::getenv("SPP_BENCH_SCALE");
    double scale = 1.0;
    if (env != nullptr) {
        const std::string err =
            parsePositive("SPP_BENCH_SCALE", env, scale);
        if (!err.empty())
            SPP_FATAL("{}", err);
    }
    return scale;
}

} // namespace spp
