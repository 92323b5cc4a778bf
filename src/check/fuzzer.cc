#include "check/fuzzer.hh"

#include <algorithm>
#include <array>
#include <optional>

#include "common/format.hh"
#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace spp {

Config
fuzzConfig(const FuzzCase &c)
{
    Config cfg;
    cfg.numCores = c.numCores;
    meshFor(c.numCores, cfg.meshX, cfg.meshY);
    cfg.protocol = c.protocol;
    cfg.predictor = c.predictor;
    cfg.sharerFormat = c.sharerFormat;
    cfg.seed = c.workload.seed;
    // 5,000,000 ticks up to 64 cores, in proportion past them.
    cfg.maxTicks = Tick{5'000'000} * std::max(c.numCores, 64u) / 64;
    cfg.injectBug = c.injectBug;
    // Tiny caches: evictions, writebacks and capacity misses race
    // with the coherence traffic instead of everything fitting.
    cfg.l1Bytes = 1024;
    cfg.l2Bytes = 4096;
    return cfg;
}

FuzzResult
runFuzzCase(const FuzzCase &c)
{
    const Config cfg = fuzzConfig(c);
    CmpSystem sys(cfg);

    CheckerOptions copts;
    copts.abortOnViolation = false;
    copts.watchdogTicks = cfg.maxTicks / 4;
    copts.dataBase = layout::sharedBase;
    ProtocolChecker checker(sys.memSys(), copts);
    sys.syncManager().addListener(&checker);

    std::optional<RunTelemetry> telemetry;
    if (c.telemetry.enabled()) {
        telemetry.emplace(c.telemetry, c.telemetryLabel.empty()
                                           ? std::string("fuzz")
                                           : c.telemetryLabel);
        telemetry->manifest().set("kind", Json("fuzz"));
        telemetry->manifest().set("case",
                                  Json(describeFuzzCase(c)));
        telemetry->attach(sys);
    }

    const wl::FuzzWorkloadParams wl = c.workload;
    RunResult rr;
    FuzzResult res;
    res.status = sys.tryRun(
        [wl](ThreadContext &ctx) { return wl::fuzzProgram(ctx, wl); },
        rr);
    if (res.status == RunStatus::ok)
        checker.checkQuiescent();
    else
        res.outstanding = sys.memSys().dumpOutstanding();

    res.violations = checker.violations();
    res.messagesChecked = checker.messagesChecked();
    res.ticks = rr.ticks;
    if (res.failed())
        res.trace = checker.dumpTrace();
    if (telemetry) {
        telemetry->manifest().set("status",
                                  Json(toString(res.status)));
        telemetry->manifest().set(
            "violations", Json(res.violations.size()));
        telemetry->finish(rr);
    }
    return res;
}

FuzzCase
shrinkFuzzCase(const FuzzCase &failing, unsigned budget)
{
    FuzzCase best = failing;
    best.telemetry = TelemetryOptions{}; // No sidecars while shrinking.

    // Greedy halving: the candidate order puts the knobs with the
    // biggest run-time payoff first so a small budget still helps.
    auto knobs = [](FuzzCase &c) {
        return std::array<unsigned *, 5>{
            &c.workload.segments, &c.workload.opsPerSegment,
            &c.workload.lines, &c.workload.locks,
            &c.workload.barriers};
    };

    bool progress = true;
    while (progress && budget > 0) {
        progress = false;
        for (std::size_t i = 0; i < knobs(best).size() && budget > 0;
             ++i) {
            FuzzCase cand = best;
            unsigned *knob = knobs(cand)[i];
            if (*knob <= 1)
                continue;
            *knob = std::max(1u, *knob / 2);
            --budget;
            if (runFuzzCase(cand).failed()) {
                best = cand;
                progress = true;
            }
        }
    }
    best.telemetry = failing.telemetry;
    return best;
}

std::string
describeFuzzCase(const FuzzCase &c)
{
    std::string s = strfmt(
        "--protocol {} --predictor {} --seed {} --cores {} "
        "--segments {} --ops {} --lines {} --locks {} --barriers {}",
        toString(c.protocol), toString(c.predictor), c.workload.seed,
        c.numCores, c.workload.segments, c.workload.opsPerSegment,
        c.workload.lines, c.workload.locks, c.workload.barriers);
    if (c.sharerFormat != SharerFormat::full)
        s += strfmt(" --format {}", toString(c.sharerFormat));
    if (c.injectBug)
        s += strfmt(" --inject {}", c.injectBug);
    return s;
}

} // namespace spp
