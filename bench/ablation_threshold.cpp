/**
 * @file
 * Ablation: hot-communication-set threshold (Section 3.3 uses 10%).
 * Lower thresholds grow the predicted set (more accuracy, more
 * bandwidth); higher ones shrink it.
 */

#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv,
              "Ablation: hot-communication-set threshold sweep");
    QuietScope quiet;
    banner("Ablation: hot-set threshold "
           "(averages over all benchmarks)");
    Table t({"threshold", "accuracy %", "predicted set size",
             "+bandwidth/miss %"});

    const std::vector<double> thresholds = {0.05, 0.10, 0.20, 0.30};
    std::vector<ExperimentConfig> configs = {directoryConfig()};
    for (double thr : thresholds) {
        ExperimentConfig cfg = predictedConfig(PredictorKind::sp);
        cfg.config.hotThreshold = thr;
        configs.push_back(cfg);
    }
    const std::vector<std::string> names = allWorkloads();
    const auto results = sweepMatrix(names, configs);

    for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
        const double thr = thresholds[ti];
        double acc = 0, setsz = 0, bw = 0;
        unsigned n = 0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const ExperimentResult &dir =
                results[i * configs.size()];
            const ExperimentResult &r =
                results[i * configs.size() + 1 + ti];
            acc += 100.0 * r.predictionAccuracy();
            setsz += r.run.mem.predictedTargets.mean();
            bw += 100.0 * (r.bytesPerMiss() - dir.bytesPerMiss()) /
                dir.bytesPerMiss();
            ++n;
        }
        t.cell(thr, 2).cell(acc / n, 1).cell(setsz / n, 2)
            .cell(bw / n, 1).endRow();
    }
    t.print();
    std::printf("\n(the latency/bandwidth trade-off knob of "
                "Section 5.2)\n");
    return 0;
}
