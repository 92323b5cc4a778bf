/**
 * @file
 * Ablation: profile-guided seeding (Section 5.2: "this gap may be
 * bridged somewhat if off-line profiling offers initial prediction
 * information"). A characterization run's per-epoch hot sets seed
 * the SP-table of a fresh run.
 */

#include "analysis/profile.hh"
#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv,
              "Ablation: profile-guided SP-table seeding (Section 5.2)");
    QuietScope quiet;
    banner("Ablation: profile-guided SP-table seeding");
    Table t({"benchmark", "cold accuracy %", "seeded accuracy %",
             "gain"});

    const std::vector<std::string> names = allWorkloads();

    // Phase 1: per workload, a traced characterization run (the
    // profile source) and a cold SP run (the baseline).
    ExperimentConfig trace_cfg = directoryConfig();
    trace_cfg.collectTrace = true;
    const auto phase1 =
        sweepMatrix(names, {trace_cfg,
                            predictedConfig(PredictorKind::sp)});

    // Distill each trace into a profile. The vector is fully built
    // before phase 2 starts, so the prepare callbacks below can
    // capture stable references into it.
    std::vector<std::vector<ProfileEntry>> profiles(names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        profiles[i] = buildProfile(*phase1[i * 2].trace, 0.10, 8);

    // Phase 2: seeded SP runs.
    std::vector<SweepJob> seeded_jobs;
    seeded_jobs.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        ExperimentConfig seeded_cfg =
            predictedConfig(PredictorKind::sp);
        seeded_cfg.prepare = [&profile = profiles[i]](CmpSystem &sys) {
            applyProfile(*sys.spPredictor(), profile);
        };
        seeded_jobs.push_back({names[i], seeded_cfg, ""});
    }
    const auto seeded_results = sweep(seeded_jobs);

    double sum_cold = 0, sum_seeded = 0;
    unsigned n = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const double c = 100.0 * phase1[i * 2 + 1].predictionAccuracy();
        const double s = 100.0 * seeded_results[i].predictionAccuracy();
        t.cell(names[i]).cell(c, 1).cell(s, 1).cell(s - c, 1).endRow();
        sum_cold += c;
        sum_seeded += s;
        ++n;
    }
    t.print();
    std::printf("\naverage: cold %.1f%%, seeded %.1f%%\n",
                sum_cold / n, sum_seeded / n);
    return 0;
}
