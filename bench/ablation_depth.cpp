/**
 * @file
 * Ablation: SP-table history depth d in {1, 2, 4} (Section 4.4 keeps
 * d <= 2; deeper history enables longer-stride pattern detection at
 * more storage).
 */

#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv,
              "Ablation: SP-table history depth d in {1, 2, 4}");
    QuietScope quiet;
    banner("Ablation: history depth d (averages over all benchmarks)");
    Table t({"depth d", "accuracy %", "+bandwidth/miss %",
             "storage (KB)", "pattern hits"});

    const std::vector<unsigned> depths = {1u, 2u, 4u};
    std::vector<ExperimentConfig> configs = {directoryConfig()};
    for (unsigned depth : depths) {
        ExperimentConfig cfg = predictedConfig(PredictorKind::sp);
        cfg.config.historyDepth = depth;
        configs.push_back(cfg);
    }
    const std::vector<std::string> names = allWorkloads();
    const auto results = sweepMatrix(names, configs);

    for (std::size_t d = 0; d < depths.size(); ++d) {
        const unsigned depth = depths[d];
        double acc = 0, bw = 0, storage = 0;
        std::uint64_t patterns = 0;
        unsigned n = 0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const ExperimentResult &dir =
                results[i * configs.size()];
            const ExperimentResult &r =
                results[i * configs.size() + 1 + d];
            acc += 100.0 * r.predictionAccuracy();
            bw += 100.0 * (r.bytesPerMiss() - dir.bytesPerMiss()) /
                dir.bytesPerMiss();
            storage += static_cast<double>(r.run.predictorStorageBits)
                / 8.0 / 1024.0;
            patterns += r.run.sp.patternHits.value();
            ++n;
        }
        t.cell(depth).cell(acc / n, 1).cell(bw / n, 1)
            .cell(storage / n, 2).cell(patterns).endRow();
    }
    t.print();
    std::printf("\n(d = 2 captures stable and stride-2 patterns at "
                "minimal storage -- the paper's choice)\n");
    return 0;
}
