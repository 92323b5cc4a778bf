/**
 * @file
 * Ablation: SP-prediction's individual mechanisms — confidence
 * recovery (Section 4.4), stride-pattern detection (Table 3), the
 * lock-union extension, and the bounded hot-set size — each toggled
 * from the default configuration.
 */

#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

namespace {

struct Variant
{
    const char *name;
    void (*edit)(Config &);
};

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv,
              "Ablation: SP-prediction mechanisms toggled one at a time");
    QuietScope quiet;
    banner("Ablation: SP-prediction mechanisms "
           "(averages over all benchmarks)");

    const std::vector<Variant> variants = {
        {"default", [](Config &) {}},
        {"no recovery",
         [](Config &c) { c.enableRecovery = false; }},
        {"no patterns",
         [](Config &c) { c.enablePatterns = false; }},
        {"lock-union ext.",
         [](Config &c) { c.unionEpochIntoLock = true; }},
        {"hot set <= 2",
         [](Config &c) { c.maxHotSetSize = 2; }},
        {"sharing filter",
         [](Config &c) { c.enableSharingFilter = true; }},
    };

    Table t({"variant", "accuracy %", "+bandwidth/miss %",
             "recoveries", "pattern hits"});
    std::vector<ExperimentConfig> configs = {directoryConfig()};
    for (const Variant &v : variants) {
        ExperimentConfig cfg = predictedConfig(PredictorKind::sp);
        v.edit(cfg.config);
        configs.push_back(cfg);
    }
    const std::vector<std::string> names = allWorkloads();
    const auto results = sweepMatrix(names, configs);

    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const Variant &v = variants[vi];
        double acc = 0, bw = 0;
        std::uint64_t recoveries = 0, patterns = 0;
        unsigned n = 0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const ExperimentResult &dir =
                results[i * configs.size()];
            const ExperimentResult &r =
                results[i * configs.size() + 1 + vi];
            acc += 100.0 * r.predictionAccuracy();
            bw += 100.0 * (r.bytesPerMiss() - dir.bytesPerMiss()) /
                dir.bytesPerMiss();
            recoveries += r.run.sp.recoveries.value();
            patterns += r.run.sp.patternHits.value();
            ++n;
        }
        t.cell(v.name).cell(acc / n, 1).cell(bw / n, 1)
            .cell(recoveries).cell(patterns).endRow();
    }
    t.print();
    return 0;
}
