/**
 * @file
 * Ablation: ADDR-predictor indexing granularity (Section 2 notes
 * macroblock indexing improves both space and accuracy over per-line
 * indexing [36]). Sweeps 64 B (per-line) to 1 KB.
 */

#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv,
              "Ablation: ADDR-predictor indexing granularity, 64 B to 1 KB");
    QuietScope quiet;
    banner("Ablation: ADDR macroblock size "
           "(averages over all benchmarks)");
    Table t({"macroblock", "accuracy %", "+bandwidth/miss %",
             "storage (KB)"});

    const std::vector<unsigned> sizes = {64u, 256u, 1024u};
    std::vector<ExperimentConfig> configs = {directoryConfig()};
    for (unsigned bytes : sizes) {
        ExperimentConfig cfg = predictedConfig(PredictorKind::addr);
        cfg.config.macroBlockBytes = bytes;
        configs.push_back(cfg);
    }
    const std::vector<std::string> names = allWorkloads();
    const auto results = sweepMatrix(names, configs);

    for (std::size_t b = 0; b < sizes.size(); ++b) {
        const unsigned bytes = sizes[b];
        double acc = 0, bw = 0, storage = 0;
        unsigned n = 0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const ExperimentResult &dir =
                results[i * configs.size()];
            const ExperimentResult &r =
                results[i * configs.size() + 1 + b];
            acc += 100.0 * r.predictionAccuracy();
            bw += 100.0 * (r.bytesPerMiss() - dir.bytesPerMiss()) /
                dir.bytesPerMiss();
            storage += static_cast<double>(r.run.predictorStorageBits)
                / 8.0 / 1024.0;
            ++n;
        }
        t.cell(std::to_string(bytes) + " B").cell(acc / n, 1)
            .cell(bw / n, 1).cell(storage / n, 1).endRow();
    }
    t.print();
    std::printf("\n(coarser indexing shrinks the table; very coarse "
                "blocks mix unrelated sharing)\n");
    return 0;
}
