/**
 * @file
 * Protocol stress-fuzz driver.
 *
 * Sweep mode (default): run N seeded random workloads against each
 * protocol/predictor combination with the invariant checker attached
 * and report any violation, timeout or deadlock. The first failure is
 * shrunk to a minimal reproducer and printed as a replayable command
 * line; with --report DIR that reproducer is run once more and its
 * status, violations, outstanding transactions and recent messages are
 * saved there as a log.
 *
 * Single-case mode: pass --seed (plus the workload-shape flags a
 * reproducer line carries) to re-run exactly one case.
 *
 * Self-test mode: --inject K plants a known protocol bug (see
 * Config::injectBug) and --expect-catch inverts the exit code — the
 * run *must* find a violation, proving the checker catches real bugs.
 *
 * Telemetry: --telemetry DIR (or SPP_TELEMETRY=DIR) writes per-case
 * trace/manifest sidecars into DIR, same as the bench_common drivers.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.hh"
#include "check/fuzzer.hh"
#include "common/format.hh"
#include "flag_set.hh"
#include "common/logging.hh"

using namespace spp;

namespace {

struct Options
{
    unsigned seeds = 150;          ///< Seeds per protocol config.
    std::uint64_t seedBase = 1;
    unsigned jobs = 0;             ///< 0 = SweepRunner::defaultJobs().
    unsigned inject = 0;
    bool expectCatch = false;
    bool shrink = true;
    std::string report;            ///< Failure log directory.
    std::string protocols = "all"; ///< all | directory,broadcast,...
    std::string format = "all";    ///< Sharer format(s) to sweep.
    TelemetryOptions telemetry;    ///< Per-case sidecars (opt-in).

    // Single-case mode (active when --seed is given).
    bool single = false;
    FuzzCase single_case;
};

Protocol
parseProtocol(const std::string &s)
{
    if (const auto p = parseProtocolName(s))
        return *p;
    SPP_FATAL("unknown protocol '{}'", s);
}

PredictorKind
parsePredictor(const std::string &s)
{
    if (const auto p = parsePredictorName(s))
        return *p;
    SPP_FATAL("unknown predictor '{}'", s);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.telemetry = TelemetryOptions::fromEnv();
    constexpr std::uint64_t u32max = 0xffffffffull;
    constexpr std::uint64_t u64max = ~0ull;
    bench::FlagSet fs(
        "Protocol stress-fuzz: seeded random workloads against the "
        "invariant checker;\n--seed (with the workload-shape flags "
        "a reproducer line carries) re-runs one case",
        "SPP_JOBS, SPP_TELEMETRY");
    fs.onUnsigned("--seeds", "N", 1, u32max,
                  "seeds per protocol config (sweep mode)",
                  [&o](std::uint64_t v) {
                      o.seeds = static_cast<unsigned>(v);
                  });
    fs.onUnsigned("--seed-base", "S", 0, u64max, "first seed",
                  [&o](std::uint64_t v) { o.seedBase = v; });
    fs.onUnsigned("--jobs", "N", 1, 65536, "worker threads",
                  [&o](std::uint64_t v) {
                      o.jobs = static_cast<unsigned>(v);
                  });
    fs.onValue("--protocols", "LIST",
               "all, or a comma list of directory|predicted|"
               "broadcast|multicast",
               [&o](const std::string &v) { o.protocols = v; });
    fs.onUnsigned("--inject", "K", 0, u32max,
                  "plant bug K (self-test; see Config::injectBug)",
                  [&o](std::uint64_t v) {
                      o.inject = static_cast<unsigned>(v);
                  });
    fs.onSwitch("--expect-catch",
                "invert the exit code: the run must find a "
                "violation",
                [&o] { o.expectCatch = true; });
    fs.onSwitch("--no-shrink", "skip reproducer minimization",
                [&o] { o.shrink = false; });
    fs.onValue("--report", "DIR", "save the reproducer's failure log in DIR",
               [&o](const std::string &v) { o.report = v; });
    fs.onValue("--telemetry", "DIR", "per-case telemetry sidecars",
               [&o](const std::string &v) { o.telemetry.dir = v; });
    fs.onValue("--protocol", "P", "single-case protocol",
               [&o](const std::string &v) {
                   o.single = true;
                   o.single_case.protocol = parseProtocol(v);
               });
    fs.onValue("--predictor", "K", "single-case predictor",
               [&o](const std::string &v) {
                   o.single_case.predictor = parsePredictor(v);
               });
    fs.onUnsigned("--seed", "S", 0, u64max,
                  "single-case seed (enables single-case mode)",
                  [&o](std::uint64_t v) {
                      o.single = true;
                      o.single_case.workload.seed = v;
                  });
    fs.onUnsigned("--cores", "N", 1, maxCores, "core count",
                  [&o](std::uint64_t v) {
                      o.single_case.numCores =
                          static_cast<unsigned>(v);
                  });
    fs.onValue("--format", "F",
               "sharer format(s): full|coarse|limited|all",
               [&o](const std::string &v) {
                   o.format = v;
                   if (o.format != "all")
                       o.single_case.sharerFormat =
                           sharerFormatFromString(o.format);
               });
    fs.onUnsigned("--segments", "N", 1, u32max,
                  "workload shape: segments",
                  [&o](std::uint64_t v) {
                      o.single_case.workload.segments =
                          static_cast<unsigned>(v);
                  });
    fs.onUnsigned("--ops", "N", 1, u32max,
                  "workload shape: ops per segment",
                  [&o](std::uint64_t v) {
                      o.single_case.workload.opsPerSegment =
                          static_cast<unsigned>(v);
                  });
    fs.onUnsigned("--lines", "N", 1, u32max,
                  "workload shape: distinct lines",
                  [&o](std::uint64_t v) {
                      o.single_case.workload.lines =
                          static_cast<unsigned>(v);
                  });
    fs.onUnsigned("--locks", "N", 0, u32max,
                  "workload shape: locks",
                  [&o](std::uint64_t v) {
                      o.single_case.workload.locks =
                          static_cast<unsigned>(v);
                  });
    fs.onUnsigned("--barriers", "N", 0, u32max,
                  "workload shape: barriers",
                  [&o](std::uint64_t v) {
                      o.single_case.workload.barriers =
                          static_cast<unsigned>(v);
                  });
    fs.parse(argc, argv);
    return o;
}

/** The protocol/predictor grid a sweep covers. */
std::vector<std::pair<Protocol, PredictorKind>>
configGrid(const Options &o)
{
    std::vector<std::pair<Protocol, PredictorKind>> grid;
    auto want = [&](const char *name) {
        return o.protocols == "all" ||
            o.protocols.find(name) != std::string::npos;
    };
    // The injected bugs live in the directory engine, so self-test
    // sweeps only cover the protocols that exercise that code.
    if (want("directory"))
        grid.emplace_back(Protocol::directory, PredictorKind::none);
    if (want("predicted"))
        grid.emplace_back(Protocol::predicted, PredictorKind::sp);
    if (!o.inject) {
        if (want("broadcast"))
            grid.emplace_back(Protocol::broadcast,
                              PredictorKind::none);
        if (want("multicast"))
            grid.emplace_back(Protocol::multicast,
                              PredictorKind::sp);
    }
    if (grid.empty()) {
        std::fprintf(stderr, "no protocols selected by '%s'\n",
                     o.protocols.c_str());
        std::exit(2);
    }
    return grid;
}

/** With --report DIR, run @p c once and log that run to DIR, so the
 * reproducer line and the failure details describe the same case. */
void
saveReport(const Options &o, const FuzzCase &c)
{
    if (o.report.empty())
        return;
    const std::string path = o.report + "/fuzz_" +
        toString(c.protocol) + "_seed" +
        std::to_string(c.workload.seed) + ".log";
    const FuzzResult r = runFuzzCase(c);

    std::FILE *log = std::fopen(path.c_str(), "w");
    if (!log)
        SPP_FATAL("cannot write fuzz report '{}'", path);
    std::fprintf(log, "reproducer: %s\nstatus: %s\n",
                 describeFuzzCase(c).c_str(), toString(r.status));
    for (const Violation &v : r.violations)
        std::fprintf(log, "[tick %llu] %s: %s\n",
                     static_cast<unsigned long long>(v.tick),
                     v.rule.c_str(), v.detail.c_str());
    if (!r.outstanding.empty())
        std::fprintf(log, "outstanding:\n%s\n", r.outstanding.c_str());
    std::fprintf(log, "recent messages:\n%s", r.trace.c_str());
    std::fclose(log);
    std::printf("saved report: %s\n", path.c_str());
}

void
printFailure(const Options &o, const FuzzCase &c, const FuzzResult &r)
{
    std::printf("FAIL %s: status=%s violations=%zu\n",
                describeFuzzCase(c).c_str(), toString(r.status),
                r.violations.size());
    for (const Violation &v : r.violations)
        std::printf("  [tick %llu] %s: %s\n",
                    static_cast<unsigned long long>(v.tick),
                    v.rule.c_str(), v.detail.c_str());
    if (r.status != RunStatus::ok && !r.outstanding.empty())
        std::printf("  outstanding:\n%s\n", r.outstanding.c_str());

    FuzzCase minimal = c;
    if (o.shrink) {
        minimal = shrinkFuzzCase(c);
        std::printf("minimal reproducer: %s\n",
                    describeFuzzCase(minimal).c_str());
    }
    saveReport(o, minimal);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    setQuiet(true);

    if (o.single) {
        FuzzCase c = o.single_case;
        c.injectBug = o.inject;
        c.telemetry = o.telemetry;
        c.telemetryLabel = strfmt("fuzz_{}_s{}",
                                  toString(c.protocol),
                                  c.workload.seed);
        const FuzzResult r = runFuzzCase(c);
        std::printf("%s: status=%s violations=%zu messages=%llu "
                    "ticks=%llu\n",
                    describeFuzzCase(c).c_str(), toString(r.status),
                    r.violations.size(),
                    static_cast<unsigned long long>(
                        r.messagesChecked),
                    static_cast<unsigned long long>(r.ticks));
        for (const Violation &v : r.violations)
            std::printf("  [tick %llu] %s: %s\n",
                        static_cast<unsigned long long>(v.tick),
                        v.rule.c_str(), v.detail.c_str());
        if (r.failed() && !r.trace.empty())
            std::printf("recent messages:\n%s", r.trace.c_str());
        return r.failed() == o.expectCatch ? 0 : 1;
    }

    const auto grid = configGrid(o);
    std::vector<FuzzCase> cases;
    for (const auto &[protocol, predictor] : grid) {
        for (unsigned s = 0; s < o.seeds; ++s) {
            FuzzCase c;
            c.protocol = protocol;
            c.predictor = predictor;
            c.workload.seed = o.seedBase + s;
            c.numCores = o.single_case.numCores;
            // "--format all" rotates the directory sharer format
            // across the seeds so one sweep covers every encoding.
            c.sharerFormat = o.format == "all"
                ? static_cast<SharerFormat>(s % 3)
                : o.single_case.sharerFormat;
            c.injectBug = o.inject;
            c.telemetry = o.telemetry;
            // Unique deterministic file stem per case; the case
            // list is fixed before the sweep, so labels are
            // identical at any --jobs count.
            c.telemetryLabel = strfmt("fuzz_{}_s{}_i{}",
                                      toString(protocol),
                                      c.workload.seed, cases.size());
            cases.push_back(c);
        }
    }

    const std::vector<FuzzResult> results = SweepRunner(o.jobs).map(
        cases, [](const FuzzCase &c) { return runFuzzCase(c); });

    std::uint64_t messages = 0;
    std::size_t failures = 0;
    std::size_t first_fail = cases.size();
    for (std::size_t i = 0; i < results.size(); ++i) {
        messages += results[i].messagesChecked;
        if (results[i].failed()) {
            ++failures;
            if (first_fail == cases.size())
                first_fail = i;
        }
    }

    std::printf("fuzz: %zu cases (%zu configs x %u seeds), %llu "
                "messages checked, %zu failure%s\n",
                cases.size(), grid.size(), o.seeds,
                static_cast<unsigned long long>(messages), failures,
                failures == 1 ? "" : "s");

    if (failures && !o.expectCatch)
        printFailure(o, cases[first_fail], results[first_fail]);

    if (o.expectCatch) {
        if (!failures) {
            std::printf("expected the injected bug (%u) to be "
                        "caught, but every case passed\n", o.inject);
            return 1;
        }
        std::printf("injected bug %u caught as expected (first: "
                    "%s)\n",
                    o.inject,
                    describeFuzzCase(cases[first_fail]).c_str());
        return 0;
    }
    return failures ? 1 : 0;
}
