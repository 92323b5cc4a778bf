/**
 * @file
 * Ablation: fixed 150-cycle memory (the paper's Table 4 model) vs
 * the banked open-row DRAM model. Shows how memory-system detail
 * shifts absolute miss latencies while leaving the SP-prediction
 * comparison intact.
 */

#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv,
              "Ablation: fixed 150-cycle memory vs the banked open-row DRAM model");
    QuietScope quiet;
    banner("Ablation: fixed-latency memory vs banked DRAM "
           "(averages over all benchmarks)");
    Table t({"memory model", "dir miss lat", "sp miss lat",
             "sp/dir", "row hit %", "sp accuracy %"});

    // Four configs per workload: (fixed, dram) x (dir, sp).
    std::vector<ExperimentConfig> configs;
    for (bool dram : {false, true}) {
        for (ExperimentConfig cfg :
             {directoryConfig(), predictedConfig(PredictorKind::sp)}) {
            cfg.config.enableDram = dram;
            configs.push_back(cfg);
        }
    }
    const std::vector<std::string> names = allWorkloads();
    const auto results = sweepMatrix(names, configs);

    for (bool dram : {false, true}) {
        const std::size_t col = dram ? 2 : 0;
        double dir_lat = 0, sp_lat = 0, acc = 0;
        double hits = 0, accesses = 0;
        unsigned n = 0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const ExperimentResult &dir =
                results[i * configs.size() + col];
            const ExperimentResult &sp =
                results[i * configs.size() + col + 1];
            dir_lat += dir.avgMissLatency();
            sp_lat += sp.avgMissLatency();
            acc += 100.0 * sp.predictionAccuracy();
            ++n;
        }
        // Row-hit rate from one representative streaming run.
        {
            Config cfg;
            cfg.protocol = Protocol::directory;
            cfg.enableDram = dram;
            CmpSystem sys(cfg);
            const WorkloadSpec *spec = findWorkload("radix");
            WorkloadParams params;
            params.scale = defaultBenchScale();
            sys.run([&](ThreadContext &ctx) {
                return spec->run(ctx, params);
            });
            if (const DramModel *d = sys.memSys().dram()) {
                hits = static_cast<double>(
                    d->stats().rowHits.value());
                accesses = static_cast<double>(
                    d->stats().accesses.value());
            }
        }
        t.cell(dram ? "banked DRAM" : "fixed 150 (paper)")
            .cell(dir_lat / n, 1).cell(sp_lat / n, 1)
            .cell(sp_lat / dir_lat, 3)
            .cell(accesses > 0 ? 100.0 * hits / accesses : 0.0, 1)
            .cell(acc / n, 1).endRow();
    }
    t.print();
    std::printf("\n(the SP-vs-directory ratio is robust to the "
                "memory model)\n");
    return 0;
}
