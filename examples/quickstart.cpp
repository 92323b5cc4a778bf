/**
 * @file
 * Quickstart: build a 16-core CMP, run one workload under the
 * baseline directory protocol and under SP-prediction, and print the
 * headline comparison (miss latency, execution time, accuracy).
 *
 * Usage: quickstart [workload] [scale]
 *
 * A malformed scale exits 2 naming the argument and the text.
 */

#include <cstdio>
#include <string>

#include "analysis/experiment.hh"
#include "analysis/report.hh"
#include "common/logging.hh"

using namespace spp;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "ocean";
    double scale = 1.0;
    if (argc > 2) {
        const std::string err = parsePositive("scale", argv[2], scale);
        if (!err.empty()) {
            std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
            return 2;
        }
    }

    std::printf("SP-prediction quickstart: workload '%s', scale %g\n",
                workload.c_str(), scale);

    ExperimentConfig base;
    base.config.protocol = Protocol::directory;
    base.scale = scale;

    ExperimentConfig sp = base;
    sp.config.protocol = Protocol::predicted;
    sp.config.predictor = PredictorKind::sp;

    ExperimentResult dir_res = runExperiment(workload, base);
    ExperimentResult sp_res = runExperiment(workload, sp);

    banner("Directory baseline vs SP-prediction");
    Table t({"metric", "directory", "sp-predictor"});
    t.cell("execution cycles")
        .cell(std::uint64_t{dir_res.run.ticks})
        .cell(std::uint64_t{sp_res.run.ticks}).endRow();
    t.cell("L2 misses")
        .cell(dir_res.run.mem.misses.value())
        .cell(sp_res.run.mem.misses.value()).endRow();
    t.cell("communicating misses")
        .cell(dir_res.run.mem.communicatingMisses.value())
        .cell(sp_res.run.mem.communicatingMisses.value()).endRow();
    t.cell("avg miss latency")
        .cell(dir_res.avgMissLatency(), 1)
        .cell(sp_res.avgMissLatency(), 1).endRow();
    t.cell("NoC bytes")
        .cell(dir_res.run.noc.flitBytes.value())
        .cell(sp_res.run.noc.flitBytes.value()).endRow();
    t.print();

    std::printf(
        "\nSP-prediction: accuracy %.1f%% of communicating misses, "
        "miss latency %.1f%% of baseline, execution time %.1f%% of "
        "baseline\n",
        100.0 * sp_res.predictionAccuracy(),
        100.0 * sp_res.avgMissLatency() / dir_res.avgMissLatency(),
        100.0 * static_cast<double>(sp_res.run.ticks) /
            static_cast<double>(dir_res.run.ticks));
    return 0;
}
