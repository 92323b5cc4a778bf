/**
 * @file
 * Predictor shoot-out: runs one workload under the directory
 * baseline, broadcast, and all four destination-set predictors (SP,
 * ADDR, INST, UNI), reporting the latency/bandwidth/storage
 * trade-off each scheme lands on (the Section 5.4 comparison).
 *
 * The six runs are submitted as one sweep, so --jobs N (or SPP_JOBS)
 * executes them concurrently; the table is byte-identical at any
 * thread count.
 *
 * Usage: predictor_compare [workload] [scale] [--jobs N]
 *
 * A malformed scale or worker count exits 2 naming the argument and
 * the text; N must be in [1, 65536] like the bench drivers' --jobs.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/report.hh"
#include "analysis/sweep.hh"

using namespace spp;

namespace {

void
row(Table &t, const char *name, const ExperimentResult &r,
    const ExperimentResult &dir)
{
    const double base_lat = dir.avgMissLatency();
    const double base_bpm = dir.bytesPerMiss();
    t.cell(name)
        .cell(r.avgMissLatency() / base_lat, 3)
        .cell(static_cast<double>(r.run.ticks) /
                  static_cast<double>(dir.run.ticks), 3)
        .cell(100.0 * (r.bytesPerMiss() - base_bpm) / base_bpm, 1)
        .cell(100.0 * r.predictionAccuracy(), 1)
        .cell(r.energy / dir.energy, 2)
        .cell(static_cast<double>(r.run.predictorStorageBits) /
                  8.0 / 1024.0, 2)
        .endRow();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "bodytrack";
    double scale = 1.0;
    std::uint64_t jobs = 0; // 0: the sweep engine's default.
    int positional = 0;
    auto usage = [&]() {
        std::fprintf(stderr, "usage: %s [workload] [scale] [--jobs N]\n",
                     argv[0]);
        std::exit(2);
    };
    auto check = [&](const std::string &err) {
        if (err.empty())
            return;
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--jobs") == 0) {
            if (i + 1 >= argc)
                usage();
            check(parseUnsigned("--jobs", argv[++i], 1, 65536, jobs));
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            check(parseUnsigned("--jobs", arg + 7, 1, 65536, jobs));
        } else if (positional == 0) {
            workload = arg;
            ++positional;
        } else if (positional == 1) {
            check(parsePositive("scale", arg, scale));
            ++positional;
        } else {
            usage();
        }
    }

    auto config = [&](Protocol proto, PredictorKind kind) {
        ExperimentConfig cfg;
        cfg.config.protocol = proto;
        cfg.config.predictor = kind;
        cfg.scale = scale;
        return cfg;
    };

    const std::pair<const char *, PredictorKind> predictors[] = {
        {"SP", PredictorKind::sp},
        {"ADDR", PredictorKind::addr},
        {"INST", PredictorKind::inst},
        {"UNI", PredictorKind::uni}};

    std::vector<SweepJob> sweep_jobs;
    sweep_jobs.push_back(
        {workload, config(Protocol::directory, PredictorKind::none),
         "directory"});
    sweep_jobs.push_back(
        {workload, config(Protocol::broadcast, PredictorKind::none),
         "broadcast"});
    for (auto [name, kind] : predictors)
        sweep_jobs.push_back(
            {workload, config(Protocol::predicted, kind), name});

    std::printf("Predictor comparison on '%s'\n", workload.c_str());
    const auto results =
        runSweep(sweep_jobs, static_cast<unsigned>(jobs));
    const ExperimentResult &dir = results[0];

    banner("Latency / bandwidth / storage trade-off "
           "(normalized to directory)");
    Table t({"scheme", "miss lat.", "exec time", "+bw/miss %",
             "accuracy %", "energy", "storage KB"});
    row(t, "directory", dir, dir);
    row(t, "broadcast", results[1], dir);
    for (std::size_t k = 0; k < 4; ++k)
        row(t, predictors[k].first, results[2 + k], dir);
    t.print();

    std::printf("\n(SP should sit near ADDR/INST on latency and "
                "bandwidth at a fraction of the storage)\n");
    return 0;
}
