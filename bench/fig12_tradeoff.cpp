/**
 * @file
 * Figure 12: latency/bandwidth trade-off plane for SP-, ADDR-, INST-
 * and UNI-prediction and the plain directory, on fmm, ocean,
 * fluidanimate and dedup (unlimited predictor tables).
 *
 * x: additional request bandwidth per miss relative to the directory
 *    protocol (%); y: % of misses incurring directory indirection.
 * Lower-left is better; the directory sits at the upper-left.
 */

#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

namespace {

struct Point
{
    double addedBandwidthPct;
    double indirectionPct;
};

Point
pointOf(const ExperimentResult &r, const ExperimentResult &dir)
{
    const double dir_bpm = dir.bytesPerMiss();
    Point p;
    p.addedBandwidthPct =
        100.0 * (r.bytesPerMiss() - dir_bpm) / dir_bpm;
    p.indirectionPct = r.indirectionPct();
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv,
              "Figure 12: latency/bandwidth trade-off plane per predictor");
    QuietScope quiet;
    banner("Figure 12: performance/bandwidth trade-off "
           "(unlimited tables)");
    const std::vector<std::string> names = {"fmm", "ocean",
                                            "fluidanimate", "dedup"};
    const std::vector<std::pair<const char *, PredictorKind>> kinds =
        {{"SP-predictor", PredictorKind::sp},
         {"ADDR-predictor", PredictorKind::addr},
         {"INST-predictor", PredictorKind::inst},
         {"UNI-predictor", PredictorKind::uni}};
    std::vector<ExperimentConfig> configs = {directoryConfig()};
    for (const auto &[label, kind] : kinds)
        configs.push_back(predictedConfig(kind));
    const auto results = sweepMatrix(names, configs);

    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::size_t base = i * configs.size();
        const ExperimentResult &dir = results[base];

        Table t({"predictor", "+bandwidth/miss %", "misses indirect %"});
        const Point d = pointOf(dir, dir);
        t.cell("Directory").cell(d.addedBandwidthPct, 1)
            .cell(d.indirectionPct, 1).endRow();
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const Point p = pointOf(results[base + 1 + k], dir);
            t.cell(kinds[k].first).cell(p.addedBandwidthPct, 1)
                .cell(p.indirectionPct, 1).endRow();
        }
        banner(std::string("Figure 12: ") + names[i]);
        t.print();
    }
    std::printf("\n(lower-left corner is the best point of the "
                "trade-off space)\n");
    return 0;
}
