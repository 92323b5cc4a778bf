/**
 * @file
 * Event-kernel perf microbench: the first entry in the repo's perf
 * trajectory (BENCH_kernel.json).
 *
 * Times the simulation kernel itself — events/sec and misses/sec —
 * on four representative cells, one per protocol engine plus a
 * wide-machine cell:
 *
 *   ocean/directory          barrier-phase wavefront sharing
 *   streamcluster/broadcast  high-epoch-count hot-set churn
 *   radiosity/predicted+sp   lock-heavy migratory sharing through
 *                            the prediction path
 *   ocean/directory @ 64     the same kernel on an 8x8 machine,
 *                            guarding the multi-word CoreSet paths
 *
 * plus two observability cells, both radiosity/predicted+sp again:
 * one with an AttributionProfiler compiled in but *disabled* (the
 * profiler exists, its hot-path hooks are untaken branches — the
 * configuration every normal run pays for), and one with the
 * profiler attached and collecting. Both are excluded from the
 * aggregate (totals stay comparable across schema versions) and are
 * compared against the plain radiosity cell intra-run — a ratio
 * robust to machine-to-machine variance, so it can gate far tighter
 * than the committed-baseline check: `--attr-overhead-tolerance PCT`
 * fails the run when the *disabled*-profiler cell exceeds the
 * budget. The attached-profiler overhead is reported and recorded
 * in the JSON for trend tracking, but not gated (an attached
 * profiler is an opt-in diagnostic; its cost is inherent virtual
 * dispatch per message, not a regression signal).
 *
 * A seventh cell replays the ocean/directory cell from an op trace
 * recorded once (untimed) instead of running the live generator
 * coroutine: it times the trace frontend's replay path and reports
 * the replay-vs-live delta against its live twin. Like the profiler
 * cells it is excluded from the aggregate and asserted to reproduce
 * the twin's exact event and tick counts.
 *
 * Each cell runs `--reps` times and reports the best wall clock (the
 * least-noise estimate of kernel cost; event/miss counts are
 * deterministic across reps and are asserted to be so). The summary
 * and JSON include aggregate events/sec across all cells, which is
 * the number CI guards.
 *
 * With `--baseline FILE` the run compares its aggregate events/sec
 * against the committed baseline and exits non-zero on a regression
 * beyond `--tolerance` percent (default 20) — wide enough for
 * machine-to-machine variance, tight enough to catch an accidental
 * return to per-event heap allocation.
 *
 * Deliberately built on the low-level API (Config + CmpSystem +
 * workload registry, no experiment harness) so the harness itself is
 * insensitive to analysis-layer refactors and measures only the
 * kernel.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/attribution.hh"
#include "analysis/experiment.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "flag_set.hh"
#include "sim/cmp_system.hh"
#include "telemetry/json.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "workload/workload.hh"

using namespace spp;

namespace {

/** Profiler configuration of one cell. */
enum class AttrMode
{
    off,        ///< No profiler object at all (the three base cells).
    disabled,   ///< Profiler constructed, never attached: the hooks
                ///< compile in but stay untaken — what every normal
                ///< run pays. Gated by --attr-overhead-tolerance.
    attached,   ///< Profiler attached and collecting (report-only).
};

const char *
toString(AttrMode m)
{
    switch (m) {
    case AttrMode::off: return "off";
    case AttrMode::disabled: return "disabled";
    case AttrMode::attached: return "attached";
    }
    return "?";
}

struct Cell
{
    const char *workload;
    Protocol protocol;
    PredictorKind predictor;
    unsigned cores;
    AttrMode attr;
    /** Drive the cell from a pre-recorded in-memory op trace
     * instead of the live generator coroutine (the trace frontend's
     * replay path). Compared against its live twin intra-run. */
    bool replay = false;
};

constexpr Cell kCells[] = {
    {"ocean", Protocol::directory, PredictorKind::none, 16,
     AttrMode::off},
    {"streamcluster", Protocol::broadcast, PredictorKind::none, 16,
     AttrMode::off},
    {"radiosity", Protocol::predicted, PredictorKind::sp, 16,
     AttrMode::off},
    // Scale cell: the same directory workload at 64 cores guards the
    // multi-word CoreSet / wide-machine paths against regressions.
    {"ocean", Protocol::directory, PredictorKind::none, 64,
     AttrMode::off},
    // Observability cells: the prediction-path workload with the
    // attribution profiler compiled-in-but-disabled (gated against
    // the plain radiosity cell via --attr-overhead-tolerance) and
    // attached-and-collecting (report-only).
    {"radiosity", Protocol::predicted, PredictorKind::sp, 16,
     AttrMode::disabled},
    {"radiosity", Protocol::predicted, PredictorKind::sp, 16,
     AttrMode::attached},
    // Replay cell: the ocean/directory cell driven from a recorded
    // op trace instead of the live generator — times the trace
    // frontend's replay path and measures generator overhead.
    // Excluded from totals (like the profiler cells) and asserted
    // event-identical to its live twin.
    {"ocean", Protocol::directory, PredictorKind::none, 16,
     AttrMode::off, true},
};

// Cell indices the profiler-overhead comparisons use.
constexpr std::size_t kPlainRadiosityCell = 2;
constexpr std::size_t kProfOffCell = 4;
constexpr std::size_t kAttrCell = 5;
// Replay-speedup comparison: replay cell vs its live twin.
constexpr std::size_t kPlainOceanCell = 0;
constexpr std::size_t kReplayCell = 6;

struct CellResult
{
    const Cell *cell = nullptr;
    std::uint64_t events = 0;
    std::uint64_t misses = 0;
    Tick ticks = 0;
    double wallMs = 0.0;   ///< Best-of-reps.

    double
    eventsPerSec() const
    {
        return static_cast<double>(events) / (wallMs / 1e3);
    }
    double
    missesPerSec() const
    {
        return static_cast<double>(misses) / (wallMs / 1e3);
    }
};

struct Options
{
    std::string out = "BENCH_kernel.json";
    std::string baseline;
    double tolerancePct = 20.0;
    /** Max allowed disabled-profiler-vs-plain slowdown in percent;
     * 0 (flag not given) = report only. */
    double attrOverheadPct = 0.0;
    unsigned reps = 3;
    double scale = 1.0;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.scale = defaultBenchScale();
    bench::FlagSet fs("Event-kernel perf microbench: times the fixed "
                      "cells and writes BENCH_kernel.json.",
                      "SPP_BENCH_SCALE");
    fs.onValue("--out", "FILE",
               "write the JSON report to FILE (default "
               "BENCH_kernel.json)",
               [&o](const std::string &v) { o.out = v; });
    fs.onValue("--baseline", "FILE",
               "compare aggregate events/sec against this report",
               [&o](const std::string &v) { o.baseline = v; });
    fs.onPositive("--tolerance", "PCT",
                  "fail on a regression beyond PCT percent of the "
                  "baseline (default 20)",
                  [&o](double v) { o.tolerancePct = v; });
    fs.onPositive("--attr-overhead-tolerance", "PCT",
                  "fail when the disabled-profiler cell is PCT "
                  "percent slower than the plain one (default: "
                  "report only)",
                  [&o](double v) { o.attrOverheadPct = v; });
    fs.onUnsigned("--reps", "N", 1, 1000,
                  "runs per cell; the best wall clock counts "
                  "(default 3)",
                  [&o](std::uint64_t v) {
                      o.reps = static_cast<unsigned>(v);
                  });
    fs.onPositive("--scale", "X",
                  "workload iteration scale (default "
                  "SPP_BENCH_SCALE, else 1)",
                  [&o](double v) { o.scale = v; });
    fs.parse(argc, argv);
    return o;
}

Config
configFor(const Cell &cell)
{
    Config cfg;
    cfg.protocol = cell.protocol;
    cfg.predictor = cell.predictor;
    cfg.numCores = cell.cores;
    meshFor(cell.cores, cfg.meshX, cfg.meshY);
    return cfg;
}

/**
 * The recorded op trace a replay cell runs from, captured once
 * (outside any timed region) on first use and reused across reps.
 */
std::shared_ptr<const TraceData>
replayTraceFor(const Cell &cell, const Options &o)
{
    static std::map<const Cell *,
                    std::shared_ptr<const TraceData>> cache;
    auto &slot = cache[&cell];
    if (slot)
        return slot;

    const WorkloadSpec *spec = findWorkload(cell.workload);
    if (!spec)
        SPP_FATAL("unknown workload '{}'", cell.workload);
    WorkloadParams params;
    params.scale = o.scale;

    CmpSystem sys(configFor(cell));
    TraceRecorder recorder(cell.cores);
    sys.setTraceSink(&recorder);
    sys.run([spec, params](ThreadContext &ctx) {
        return spec->run(ctx, params);
    });
    slot = std::make_shared<TraceData>(std::move(recorder.data));
    return slot;
}

/** One timed execution of @p cell, folded into @p r (best-of). */
void
runCellOnce(const Cell &cell, const Options &o, CellResult &r)
{
    const Config cfg = configFor(cell);

    // Build the thread function before the clock starts: for a
    // replay cell the first rep records the trace here, untimed.
    CmpSystem::ThreadFn fn;
    if (cell.replay) {
        fn = replayThreadFn(replayTraceFor(cell, o));
    } else {
        const WorkloadSpec *spec = findWorkload(cell.workload);
        if (!spec)
            SPP_FATAL("unknown workload '{}'", cell.workload);
        WorkloadParams params;
        params.scale = o.scale;
        fn = [spec, params](ThreadContext &ctx) {
            return spec->run(ctx, params);
        };
    }

    CmpSystem sys(cfg);
    // AttrMode::disabled constructs the profiler but never attaches
    // it: the sink hooks stay untaken branches, which is exactly
    // what a normal (unprofiled) run executes.
    AttributionProfiler attrib{AttributionOptions{}};
    if (cell.attr == AttrMode::attached)
        attrib.attach(sys);
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult run = sys.run(fn);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    if (r.cell == nullptr) {
        r.cell = &cell;
        r.events = run.eventsExecuted;
        r.misses = run.mem.misses.value();
        r.ticks = run.ticks;
        r.wallMs = ms;
    } else {
        // The kernel is deterministic; only the wall clock may
        // differ between reps.
        SPP_ASSERT(run.eventsExecuted == r.events &&
                       run.mem.misses.value() == r.misses &&
                       run.ticks == r.ticks,
                   "nondeterministic rep for {}", cell.workload);
        r.wallMs = std::min(r.wallMs, ms);
    }
}

/** Aggregate events/sec recorded in @p path; < 0 on parse failure. */
double
baselineEventsPerSec(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return -1.0;
    std::ostringstream ss;
    ss << in.rdbuf();
    const auto doc = Json::parse(ss.str());
    if (!doc)
        return -1.0;
    const Json *totals = doc->find("totals");
    if (!totals)
        return -1.0;
    const Json *eps = totals->find("events_per_sec");
    return eps && eps->isNumber() ? eps->asNumber() : -1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    setQuiet(true);

    // Reps are interleaved across cells (cell 0..N, then again) so
    // slow system phases hit every cell equally; a sequential
    // per-cell rep loop would bias the intra-run overhead ratios on
    // machines whose speed drifts over the run.
    constexpr std::size_t kNumCells =
        sizeof(kCells) / sizeof(kCells[0]);
    std::vector<CellResult> cells(kNumCells);
    for (unsigned rep = 0; rep < o.reps; ++rep)
        for (std::size_t i = 0; i < kNumCells; ++i)
            runCellOnce(kCells[i], o, cells[i]);

    std::uint64_t total_events = 0, total_misses = 0;
    double total_ms = 0.0;
    for (std::size_t i = 0; i < kNumCells; ++i) {
        const Cell &cell = kCells[i];
        const CellResult &r = cells[i];
        const char *tag = cell.replay                      ? "+rply "
            : cell.attr == AttrMode::attached              ? "+attr "
            : cell.attr == AttrMode::disabled              ? "+prof0"
                                                           : "      ";
        std::printf("%-13s %-9s %-4s c%-4u%s events %9llu  "
                    "misses %8llu  ticks %9llu  wall %8.2f ms  "
                    "%7.2f Mev/s\n",
                    cell.workload, toString(cell.protocol),
                    toString(cell.predictor), cell.cores, tag,
                    static_cast<unsigned long long>(r.events),
                    static_cast<unsigned long long>(r.misses),
                    static_cast<unsigned long long>(r.ticks),
                    r.wallMs, r.eventsPerSec() / 1e6);
        // The profiler and replay cells are overhead probes, not
        // part of the aggregate: totals stay comparable to pre-v3
        // baselines.
        if (cell.attr == AttrMode::off && !cell.replay) {
            total_events += r.events;
            total_misses += r.misses;
            total_ms += r.wallMs;
        }
    }

    // Attribution is purely observational: both profiler cells must
    // replay the exact same simulation as their plain twin.
    for (const std::size_t idx : {kProfOffCell, kAttrCell})
        SPP_ASSERT(cells[idx].events ==
                           cells[kPlainRadiosityCell].events &&
                       cells[idx].ticks ==
                           cells[kPlainRadiosityCell].ticks,
                   "attribution profiler perturbed the simulation");

    // Replay must reproduce its live twin's simulation exactly: same
    // op stream in, same event schedule out.
    SPP_ASSERT(cells[kReplayCell].events ==
                       cells[kPlainOceanCell].events &&
                   cells[kReplayCell].ticks ==
                       cells[kPlainOceanCell].ticks,
               "trace replay diverged from its live twin");

    const double total_eps =
        static_cast<double>(total_events) / (total_ms / 1e3);
    const double total_mps =
        static_cast<double>(total_misses) / (total_ms / 1e3);
    std::printf("total: %llu events, %llu misses in %.2f ms — "
                "%.2f Mev/s, %.2f Mmiss/s\n",
                static_cast<unsigned long long>(total_events),
                static_cast<unsigned long long>(total_misses),
                total_ms, total_eps / 1e6, total_mps / 1e6);

    const double prof_off_overhead =
        cells[kProfOffCell].wallMs /
            cells[kPlainRadiosityCell].wallMs -
        1.0;
    const double attr_overhead =
        cells[kAttrCell].wallMs / cells[kPlainRadiosityCell].wallMs -
        1.0;
    std::printf("profiler-off overhead: %+.1f%% "
                "(radiosity+prof0 %.2f ms vs %.2f ms)\n",
                prof_off_overhead * 100.0, cells[kProfOffCell].wallMs,
                cells[kPlainRadiosityCell].wallMs);
    std::printf("attached-profiler overhead: %+.1f%% "
                "(radiosity+attr %.2f ms vs %.2f ms, report-only)\n",
                attr_overhead * 100.0, cells[kAttrCell].wallMs,
                cells[kPlainRadiosityCell].wallMs);
    const double replay_speedup =
        cells[kPlainOceanCell].wallMs / cells[kReplayCell].wallMs -
        1.0;
    std::printf("trace-replay speedup: %+.1f%% "
                "(ocean replay %.2f ms vs live %.2f ms, "
                "report-only)\n",
                replay_speedup * 100.0, cells[kReplayCell].wallMs,
                cells[kPlainOceanCell].wallMs);

    Json doc = Json::object();
    doc["schema"] = "spp.perf_kernel.v4";
    doc["scale"] = o.scale;
    doc["reps"] = o.reps;
    Json arr = Json::array();
    for (const CellResult &r : cells) {
        Json c = Json::object();
        c["workload"] = r.cell->workload;
        c["protocol"] = toString(r.cell->protocol);
        c["predictor"] = toString(r.cell->predictor);
        c["cores"] = r.cell->cores;
        c["attr"] = toString(r.cell->attr);
        c["replay"] = r.cell->replay;
        c["events"] = r.events;
        c["misses"] = r.misses;
        c["ticks"] = static_cast<std::uint64_t>(r.ticks);
        c["wall_ms"] = r.wallMs;
        c["events_per_sec"] = r.eventsPerSec();
        c["misses_per_sec"] = r.missesPerSec();
        arr.push(std::move(c));
    }
    doc["cells"] = std::move(arr);
    Json totals = Json::object();
    totals["events"] = total_events;
    totals["misses"] = total_misses;
    totals["wall_ms"] = total_ms;
    totals["events_per_sec"] = total_eps;
    totals["misses_per_sec"] = total_mps;
    doc["totals"] = std::move(totals);
    doc["prof_off_overhead_pct"] = prof_off_overhead * 100.0;
    doc["attr_overhead_pct"] = attr_overhead * 100.0;
    doc["replay_speedup_pct"] = replay_speedup * 100.0;

    std::ofstream out(o.out);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
        return 1;
    }
    doc.write(out, 0);
    out << "\n";
    out.close();
    std::printf("wrote %s\n", o.out.c_str());

    if (!o.baseline.empty()) {
        const double base = baselineEventsPerSec(o.baseline);
        if (base <= 0.0) {
            std::fprintf(stderr, "cannot read baseline %s\n",
                         o.baseline.c_str());
            return 1;
        }
        const double ratio = total_eps / base;
        std::printf("baseline %.2f Mev/s, now %.2f Mev/s "
                    "(%+.1f%%, tolerance -%.0f%%)\n",
                    base / 1e6, total_eps / 1e6,
                    (ratio - 1.0) * 100.0, o.tolerancePct);
        if (ratio < 1.0 - o.tolerancePct / 100.0) {
            std::printf("FAIL: events/sec regressed beyond "
                        "tolerance\n");
            return 1;
        }
    }

    if (o.attrOverheadPct > 0.0 &&
        prof_off_overhead > o.attrOverheadPct / 100.0) {
        std::printf("FAIL: profiler-off overhead %.1f%% exceeds "
                    "tolerance %.0f%%\n",
                    prof_off_overhead * 100.0, o.attrOverheadPct);
        return 1;
    }
    return 0;
}
