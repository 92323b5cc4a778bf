/**
 * @file
 * Shared helpers for the figure/table regeneration harnesses. Each
 * bench binary reproduces one table or figure of the paper: it runs
 * the required (workload, protocol, predictor) matrix and prints the
 * same rows/series the paper reports.
 *
 * Scale: set SPP_BENCH_SCALE (default 1.0) to shrink or grow the
 * workload inputs.
 *
 * Parallelism: every driver submits its (workload, config) matrix
 * through the SweepRunner. Pass --jobs N (or set SPP_JOBS) to pick
 * the worker count; results are returned in job order, so the
 * printed tables are byte-identical at any thread count. Set
 * SPP_PROGRESS=1 to watch per-job completion lines on stderr.
 *
 * Telemetry: pass --telemetry DIR (or set SPP_TELEMETRY=DIR) to
 * write per-job Chrome-trace timelines and run manifests into DIR.
 * Off by default at zero cost.
 *
 * Attribution: pass --attribution DIR (or set SPP_ATTRIBUTION=DIR)
 * to write per-job attribution.{json,txt} artifacts — per-sync-point
 * misprediction and traffic accounting — into DIR. Off by default
 * at zero cost.
 *
 * Traces: pass --replay FILE (or SPP_TRACE_REPLAY=FILE) to drive
 * every job from one `.spptrace` file instead of the workload
 * generators. trace_tool records such a file from a workload or
 * imports one from mcsim. A file holds one program, so only a driver
 * whose sweep runs a single workload replays (fig02, for one); a
 * sweep over several workloads exits 1 rather than print the file's
 * result under each workload's name.
 *
 * Results: pass --result-store DIR (or SPP_RESULT_STORE=DIR) to back
 * the sweep with a content-addressed result cache: cells whose
 * (config, workload, scale, git) key already has an entry skip
 * simulation entirely and deserialize the stored result —
 * byte-identical output, seconds instead of minutes. Cold cells
 * simulate and populate the store atomically. --result-refresh
 * re-simulates and overwrites. A summary of store traffic prints to
 * stderr after each sweep, keeping stdout byte-identical to an
 * uncached run.
 *
 * Config overrides: --set FIELD=VALUE (repeatable) edits any Config
 * field by the name configDescribe() prints — the same vocabulary
 * the result-store keys and the run manifests use.
 *
 * All flags are declared through FlagSet (flag_set.hh), which also
 * generates --help.
 */

#ifndef SPP_BENCH_BENCH_COMMON_HH
#define SPP_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "analysis/epoch_stats.hh"
#include "analysis/experiment.hh"
#include "analysis/locality.hh"
#include "analysis/patterns.hh"
#include "analysis/report.hh"
#include "analysis/sweep.hh"
#include "common/logging.hh"
#include "flag_set.hh"
#include "service/result_store.hh"
#include "telemetry/options.hh"
#include "workload/workload.hh"

namespace spp {
namespace bench {

/** Sweep worker count: 0 = SweepRunner::defaultJobs(). */
inline unsigned g_jobs = 0;

/** Machine geometry overrides: 0 = keep the Config defaults
 * (16 cores on a 4x4 mesh). --cores picks the most-square mesh;
 * --mesh fixes it explicitly (rectangles allowed). */
inline unsigned g_cores = 0;
inline unsigned g_mesh_x = 0;
inline unsigned g_mesh_y = 0;

/** Directory sharer-set format for every config factory below. */
inline SharerFormat g_format = SharerFormat::full;

/** Telemetry knobs shared by every config factory below; disabled
 * unless --telemetry or SPP_TELEMETRY names a directory. */
inline TelemetryOptions g_telemetry;

/** Attribution knobs shared by every config factory below; disabled
 * unless --attribution or SPP_ATTRIBUTION names a directory. */
inline AttributionOptions g_attribution;

/** The `.spptrace` file every config factory below replays; empty
 * (live runs) unless --replay or SPP_TRACE_REPLAY names one. */
inline std::string g_replay;

/** Result-cache knobs shared by every config factory below;
 * disabled unless --result-store or SPP_RESULT_STORE names a
 * directory. */
inline ResultStoreOptions g_result_store;

/** --set FIELD=VALUE overrides, applied by the config factories in
 * command-line order (later values win). */
inline std::vector<std::pair<std::string, std::string>> g_settings;

/**
 * Validate a --cores / --mesh combination (0 = flag not given).
 * Returns "" when consistent, else the complaint to die with —
 * separated from initBench so the tests can probe it without
 * forking.
 */
inline std::string
geometryError(unsigned cores, unsigned mesh_x, unsigned mesh_y)
{
    if (mesh_x != 0 && mesh_x * mesh_y > maxCores)
        return "--mesh " + std::to_string(mesh_x) + "x" +
            std::to_string(mesh_y) + " exceeds the " +
            std::to_string(maxCores) + "-core build limit";
    if (cores != 0 && mesh_x != 0 && mesh_x * mesh_y != cores)
        return "--mesh " + std::to_string(mesh_x) + "x" +
            std::to_string(mesh_y) + " does not cover --cores " +
            std::to_string(cores);
    return "";
}

/** The environment variables every driver reads (for --help). */
inline const char *
benchEnvNote()
{
    return "SPP_JOBS, SPP_BENCH_SCALE, SPP_PROGRESS, SPP_TELEMETRY, "
           "SPP_ATTRIBUTION, SPP_TRACE_REPLAY, SPP_RESULT_STORE";
}

/** Register the flags every figure/table driver shares. */
inline void
addBenchFlags(FlagSet &fs)
{
    fs.onUnsigned("--jobs", "N", 1, 65536,
                  "sweep worker threads (default SPP_JOBS, else all "
                  "hardware threads)",
                  [](std::uint64_t v) {
                      g_jobs = static_cast<unsigned>(v);
                  });
    fs.onUnsigned("--cores", "N", 1, maxCores,
                  "core count; picks the most-square mesh",
                  [](std::uint64_t v) {
                      g_cores = static_cast<unsigned>(v);
                  });
    fs.add("--mesh", "X Y", "mesh geometry (rectangles allowed)",
           [](const std::vector<std::string> &v) {
               g_mesh_x = static_cast<unsigned>(parseUnsigned(
                   "--mesh", v[0].c_str(), 1, maxCores));
               g_mesh_y = static_cast<unsigned>(parseUnsigned(
                   "--mesh", v[1].c_str(), 1, maxCores));
           });
    fs.onValue("--format", "FMT",
               "directory sharer-set format: full|coarse|limited",
               [](const std::string &v) {
                   g_format = sharerFormatFromString(v);
               });
    fs.onValue("--telemetry", "DIR",
               "write per-job Chrome traces and manifests into DIR",
               [](const std::string &v) { g_telemetry.dir = v; });
    fs.onValue("--attribution", "DIR",
               "write per-job sync-point attribution artifacts "
               "into DIR",
               [](const std::string &v) { g_attribution.dir = v; });
    fs.onValue("--replay", "FILE",
               "drive every job from one .spptrace file",
               [](const std::string &v) { g_replay = v; });
    fs.onValue("--result-store", "DIR",
               "content-addressed result cache: warm cells skip "
               "simulation, cold cells populate",
               [](const std::string &v) { g_result_store.dir = v; });
    fs.onSwitch("--result-refresh",
                "re-simulate cached cells and overwrite their "
                "entries",
                [] { g_result_store.refresh = true; });
    fs.onValue("--set", "FIELD=VALUE",
               "override a config field by its configDescribe() "
               "name (repeatable)",
               [](const std::string &v) {
                   const std::size_t eq = v.find('=');
                   if (eq == std::string::npos || eq == 0)
                       SPP_FATAL("--set expects FIELD=VALUE, got "
                                 "'{}'",
                                 v);
                   g_settings.emplace_back(v.substr(0, eq),
                                           v.substr(eq + 1));
               });
}

/** Apply the --cores / --mesh / --format / --set overrides to
 * @p cfg. A --set that changes numCores gets the most-square mesh
 * automatically, unless --mesh or a --set of meshX/meshY named one:
 * a named mesh is kept, and configValidate() rejects it if it does
 * not cover the cores. */
inline void
applyGeometry(Config &cfg)
{
    bool mesh_named = g_mesh_x != 0;
    if (g_mesh_x != 0) {
        cfg.meshX = g_mesh_x;
        cfg.meshY = g_mesh_y;
        cfg.numCores = g_mesh_x * g_mesh_y;
    } else if (g_cores != 0) {
        cfg.numCores = g_cores;
        meshFor(g_cores, cfg.meshX, cfg.meshY);
    }
    cfg.sharerFormat = g_format;
    for (const auto &[field, value] : g_settings) {
        const std::string err = configSetField(cfg, field, value);
        if (!err.empty())
            SPP_FATAL("--set: {}", err);
        mesh_named = mesh_named || field == "meshX" || field == "meshY";
    }
    if (!mesh_named &&
        std::uint64_t{cfg.meshX} * cfg.meshY != cfg.numCores)
        meshFor(cfg.numCores, cfg.meshX, cfg.meshY);
}

/** Cross-flag validation; runs after parsing, fatal on conflict. */
inline void
finishBenchInit()
{
    const std::string geo_err =
        geometryError(g_cores, g_mesh_x, g_mesh_y);
    if (!geo_err.empty())
        SPP_FATAL("{}", geo_err);
    // Probe SPP_BENCH_SCALE, SPP_JOBS and the --set overrides now so
    // a typo dies at startup, not mid-sweep after a table header.
    defaultBenchScale();
    SweepRunner::defaultJobs();
    Config probe;
    applyGeometry(probe);
    const std::string cfg_err = configValidate(probe);
    if (!cfg_err.empty())
        SPP_FATAL("--set: {}", cfg_err);
}

/** Parse the shared bench flags; call first thing in every driver's
 * main(). @p description is the one-line purpose --help shows. */
inline void
initBench(int argc, char **argv,
          const char *description = "paper figure/table harness")
{
    g_telemetry = TelemetryOptions::fromEnv();
    g_attribution = AttributionOptions::fromEnv();
    const char *replay = std::getenv("SPP_TRACE_REPLAY");
    g_replay = replay ? replay : "";
    g_result_store = ResultStoreOptions::fromEnv();
    g_settings.clear();
    FlagSet fs(description, benchEnvNote());
    addBenchFlags(fs);
    fs.parse(argc, argv);
    finishBenchInit();
}

/** Run a job list on the configured worker count. With a result
 * store the cumulative store traffic prints to stderr afterwards —
 * stdout stays byte-identical to an uncached run. A replayed job
 * list must name one workload: every job runs the same file. */
inline std::vector<ExperimentResult>
sweep(const std::vector<SweepJob> &jobs)
{
    for (const SweepJob &j : jobs) {
        if (!j.config.replayTrace.empty() &&
            j.workload != jobs.front().workload)
            SPP_FATAL("--replay/SPP_TRACE_REPLAY runs every job from "
                      "{}, but this sweep spans workloads {} and {}; "
                      "replay with a single-workload driver or "
                      "trace_tool replay",
                      j.config.replayTrace, jobs.front().workload,
                      j.workload);
    }
    std::vector<ExperimentResult> results = runSweep(jobs, g_jobs);
    if (g_result_store.enabled()) {
        const ResultStoreStats &s = resultStoreStats();
        std::fprintf(stderr,
                     "result store %s: %llu hits, %llu misses, "
                     "%llu bypasses, %llu corrupt\n",
                     g_result_store.dir.c_str(),
                     static_cast<unsigned long long>(s.hits.load()),
                     static_cast<unsigned long long>(
                         s.misses.load()),
                     static_cast<unsigned long long>(
                         s.bypasses.load()),
                     static_cast<unsigned long long>(
                         s.corrupt.load()));
    }
    return results;
}

/**
 * Run the full workload × config matrix in one sweep; the result of
 * (names[i], configs[j]) lands at index i * configs.size() + j.
 */
inline std::vector<ExperimentResult>
sweepMatrix(const std::vector<std::string> &names,
            const std::vector<ExperimentConfig> &configs)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(names.size() * configs.size());
    for (const std::string &name : names)
        for (const ExperimentConfig &cfg : configs)
            jobs.push_back({name, cfg, ""});
    return sweep(jobs);
}

/** All workload names, in the paper's order. */
inline std::vector<std::string>
allWorkloads()
{
    std::vector<std::string> names;
    for (const auto &spec : workloadRegistry())
        names.push_back(spec.name);
    return names;
}

/** Directory-baseline experiment config at bench scale. */
inline ExperimentConfig
directoryConfig()
{
    ExperimentConfig c;
    c.config.protocol = Protocol::directory;
    applyGeometry(c.config);
    c.scale = defaultBenchScale();
    c.telemetry = g_telemetry;
    c.attribution = g_attribution;
    c.replayTrace = g_replay;
    c.resultStore = g_result_store;
    return c;
}

/** Broadcast-snooping experiment config at bench scale. */
inline ExperimentConfig
broadcastConfig()
{
    ExperimentConfig c;
    c.config.protocol = Protocol::broadcast;
    applyGeometry(c.config);
    c.scale = defaultBenchScale();
    c.telemetry = g_telemetry;
    c.attribution = g_attribution;
    c.replayTrace = g_replay;
    c.resultStore = g_result_store;
    return c;
}

/** Directory + predictor experiment config at bench scale. */
inline ExperimentConfig
predictedConfig(PredictorKind kind)
{
    ExperimentConfig c;
    c.config.protocol = Protocol::predicted;
    c.config.predictor = kind;
    applyGeometry(c.config);
    c.scale = defaultBenchScale();
    c.telemetry = g_telemetry;
    c.attribution = g_attribution;
    c.replayTrace = g_replay;
    c.resultStore = g_result_store;
    return c;
}

/** Quiet logging for bench output cleanliness. */
struct QuietScope
{
    QuietScope() { setQuiet(true); }
    ~QuietScope() { setQuiet(false); }
};

} // namespace bench
} // namespace spp

#endif // SPP_BENCH_BENCH_COMMON_HH
