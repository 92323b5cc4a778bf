/**
 * @file
 * Ablation: MESIF vs plain MESI (no Forwarding state). The paper's
 * baseline is MESIF because clean cache-to-cache transfers are what
 * make target prediction profitable for read misses; this quantifies
 * how much the F state contributes.
 */

#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv,
              "Ablation: MESIF vs plain MESI (no Forwarding state)");
    QuietScope quiet;
    banner("Ablation: MESIF vs MESI (averages over all benchmarks)");
    Table t({"protocol variant", "miss latency", "comm ratio",
             "sp accuracy %"});

    // Four configs per workload: (MESIF, MESI) x (dir, sp).
    std::vector<ExperimentConfig> configs;
    for (bool f_state : {true, false}) {
        for (ExperimentConfig cfg :
             {directoryConfig(), predictedConfig(PredictorKind::sp)}) {
            cfg.config.enableFState = f_state;
            configs.push_back(cfg);
        }
    }
    const std::vector<std::string> names = allWorkloads();
    const auto results = sweepMatrix(names, configs);

    for (bool f_state : {true, false}) {
        const std::size_t col = f_state ? 0 : 2;
        double lat = 0, comm = 0, acc = 0;
        unsigned n = 0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const ExperimentResult &dir =
                results[i * configs.size() + col];
            const ExperimentResult &sp =
                results[i * configs.size() + col + 1];
            lat += dir.avgMissLatency();
            comm += dir.commMissFraction();
            acc += 100.0 * sp.predictionAccuracy();
            ++n;
        }
        t.cell(f_state ? "MESIF (paper)" : "MESI (no F)")
            .cell(lat / n, 1).cell(comm / n, 3).cell(acc / n, 1)
            .endRow();
    }
    t.print();
    std::printf("\n(without F, clean-shared reads fall to memory: "
                "fewer communicating misses,\n higher latency, and "
                "less for the predictor to accelerate)\n");
    return 0;
}
