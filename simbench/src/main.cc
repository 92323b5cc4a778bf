/**
 * @file
 * Entry point of the simulator benchmark.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--scale X] [--max-ticks N]
 *            [--digest-file F] [--write-digest F] [--out-dir D]
 *
 * Prints the run manifest, a metric table and, as the last line of
 * standard output, one JSON object: correct, attempted, failed and
 * metrics (end-to-end with --trace 0, per-layer with --trace 1).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "analysis/sweep.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "simbench.hh"
#include "telemetry/manifest.hh"

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SIMBENCH_CXX_FLAGS
#define SIMBENCH_CXX_FLAGS "unknown"
#endif
#ifndef SIMBENCH_COMPILER
#define SIMBENCH_COMPILER "unknown"
#endif

namespace {

using namespace simbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "simbench: %s\n"
                 "usage: simbench --workload paper16|snoop16|wide256|"
                 "figures --seed N --seconds S --trace 0|1\n"
                 "       [--scale X] [--max-ticks N]\n"
                 "       [--digest-file F] [--write-digest F] "
                 "[--out-dir D]\n",
                 why.c_str());
    std::exit(2);
}

double
number(const std::string &flag, const std::string &v, double lo, double hi)
{
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !(d >= lo && d <= hi))
        usage(flag + " expects a number in [" + std::to_string(lo) +
              ", " + std::to_string(hi) + "], got '" + v + "'");
    return d;
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = static_cast<std::uint64_t>(
                number(flag, v, 0, 4294967295.0));
        else if (flag == "--seconds")
            o.seconds = number(flag, v, 0.001, 3600);
        else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            o.trace = v == "1";
            have_trace = true;
        } else if (flag == "--scale")
            o.scale = number(flag, v, 1e-6, 100);
        else if (flag == "--max-ticks")
            o.maxTicks = static_cast<spp::Tick>(number(flag, v, 1, 1e15));
        else if (flag == "--digest-file")
            o.digestFile = v;
        else if (flag == "--write-digest")
            o.writeDigest = v;
        else if (flag == "--out-dir")
            o.outDir = v;
        else
            usage("unknown flag " + flag);
    }
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == o.workload;
    if (!known)
        usage("unknown workload '" + o.workload + "'");
    if (!have_trace)
        usage("--trace is required");
    if (o.maxTicks != 0 && o.workload == "figures")
        usage("--max-ticks does not apply to figures: its sweep cells "
              "run through runExperiment, which aborts on a timeout");
    if (!o.digestFile.empty() && !std::ifstream(o.digestFile))
        usage("cannot read digest file " + o.digestFile);
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

spp::Json
manifest(const Options &o)
{
    spp::Json m = spp::Json::object();
    m["workload"] = spp::Json(o.workload);
    m["mode"] = spp::Json(o.trace ? "traced" : "untraced");
    m["seed"] = spp::Json(static_cast<unsigned long long>(o.seed));
    m["scale"] = spp::Json(o.scale > 0 ? o.scale : defaultScale(o.workload));
    m["seconds"] = spp::Json(o.seconds);
    m["min_passes"] = spp::Json(minPasses);
    m["workers"] = spp::Json(o.workload == "figures"
                                 ? spp::SweepRunner::defaultJobs()
                                 : 1u);
    m["nproc"] = spp::Json(std::thread::hardware_concurrency());
    m["cpu_model"] = spp::Json(cpuModel());
    m["build_type"] = spp::Json(SIMBENCH_BUILD_TYPE);
    m["cxx_flags"] = spp::Json(SIMBENCH_CXX_FLAGS);
    m["compiler"] = spp::Json(SIMBENCH_COMPILER);
    m["git_describe"] = spp::Json(spp::gitDescribe());
    m["spp_max_cores"] = spp::Json(spp::maxCores);
    m["max_ticks"] = spp::Json(static_cast<unsigned long long>(o.maxTicks));
    m["committed_digests"] =
        spp::Json(o.digestFile.empty() ? "none" : o.digestFile);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    spp::setQuiet(true);
    o.manifest = manifest(o);
    std::printf("manifest: %s\n", o.manifest.dump().c_str());
    std::fflush(stdout);

    Report rep;
    Tally tally;
    if (o.workload == "figures")
        runFigures(o, rep, tally);
    else if (o.trace)
        runSerialTraced(o, rep, tally);
    else
        runSerial(o, rep, tally);

    rep.print();
    for (const std::string &msg : tally.messages)
        std::printf("FAILED: %s\n", msg.c_str());
    std::printf("cells: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));

    spp::Json out = spp::Json::object();
    out["correct"] = spp::Json(tally.failed == 0 && tally.attempted > 0);
    out["attempted"] =
        spp::Json(static_cast<unsigned long long>(tally.attempted));
    out["failed"] = spp::Json(static_cast<unsigned long long>(tally.failed));
    out["metrics"] = rep.json();
    std::printf("%s\n", out.dump().c_str());
    return 0;
}
