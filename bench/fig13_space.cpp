/**
 * @file
 * Figure 13: effect of predictor space limits — every predictor with
 * unlimited tables vs small capacity-limited tables (32 entries/core,
 * the regime where the paper's ~4 KB point binds on our synthetic
 * footprints), averaged over all benchmarks.
 *
 * Paper reference: limited space costs ADDR and INST accuracy;
 * SP- and UNI-prediction are unaffected (their state is inherently
 * small). Also prints the modelled storage per predictor.
 */

#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

namespace {

struct Avg
{
    double bandwidth = 0;
    double indirection = 0;
    double storage_bits = 0;
    unsigned n = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv,
              "Figure 13: unlimited vs capacity-limited predictor tables");
    QuietScope quiet;
    banner("Figure 13: space limits (unlimited vs 32-entry/core "
           "tables), averages over all benchmarks");
    Table t({"predictor", "entries", "+bandwidth/miss %",
             "misses indirect %", "avg storage (KB)"});

    // 32 entries/core x 16 cores x 37 bits ~= 2.4 KB total, the
    // regime where the paper's ~4 KB point binds for our
    // (smaller-footprint) synthetic workloads.
    const std::vector<std::pair<const char *, PredictorKind>> kinds =
        {{"SP-predictor", PredictorKind::sp},
         {"ADDR-predictor", PredictorKind::addr},
         {"INST-predictor", PredictorKind::inst},
         {"UNI-predictor", PredictorKind::uni}};
    const std::vector<unsigned> entry_limits = {0u, 32u};

    // One sweep for the whole figure: the directory baseline plus
    // every (kind, limit) pair, per workload.
    std::vector<ExperimentConfig> configs = {directoryConfig()};
    for (const auto &[label, kind] : kinds) {
        for (unsigned entries : entry_limits) {
            ExperimentConfig cfg = predictedConfig(kind);
            cfg.config.predictorEntries = entries;
            configs.push_back(cfg);
        }
    }
    const std::vector<std::string> names = allWorkloads();
    const auto results = sweepMatrix(names, configs);

    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const char *label = kinds[k].first;
        for (std::size_t e = 0; e < entry_limits.size(); ++e) {
            const unsigned entries = entry_limits[e];
            const std::size_t col = 1 + k * entry_limits.size() + e;
            Avg a;
            for (std::size_t i = 0; i < names.size(); ++i) {
                const ExperimentResult &dir =
                    results[i * configs.size()];
                const ExperimentResult &r =
                    results[i * configs.size() + col];

                const double dir_bpm = dir.bytesPerMiss();
                a.bandwidth +=
                    100.0 * (r.bytesPerMiss() - dir_bpm) / dir_bpm;
                a.indirection += r.indirectionPct();
                a.storage_bits +=
                    static_cast<double>(r.run.predictorStorageBits);
                ++a.n;
            }
            t.cell(label)
                .cell(entries == 0 ? std::string("unlimited")
                                   : std::to_string(entries))
                .cell(a.bandwidth / a.n, 1)
                .cell(a.indirection / a.n, 1)
                .cell(a.storage_bits / a.n / 8.0 / 1024.0, 1)
                .endRow();
        }
    }
    t.print();
    std::printf("\n(SP and UNI are insensitive to the capacity limit;"
                " ADDR/INST lose accuracy)\n");

    // Section 5.4's fixed cost, recomputed at every machine size and
    // sharer format instead of quoted only for the 16-core full map
    // (where it is the paper's 17 bytes/core).
    banner("Sharer-set and SP fixed storage by machine size");
    Table s({"cores", "format", "dir sharer bits/entry",
             "SP signature bits", "SP fixed B/core"});
    for (const unsigned n : {16u, 64u, 256u, 1024u}) {
        for (const SharerFormat f :
             {SharerFormat::full, SharerFormat::coarse,
              SharerFormat::limited}) {
            Config c;
            c.numCores = n;
            c.sharerFormat = f;
            const std::size_t bits = c.sharerEntryBits();
            s.cell(n)
                .cell(toString(f))
                .cell(static_cast<std::uint64_t>(bits))
                .cell(static_cast<std::uint64_t>(bits))
                .cell((n * 8 + 8) / 8.0, 1)
                .endRow();
        }
    }
    s.print();
    std::printf("\n(per-core comm counters dominate the fixed cost; "
                "stored signatures follow the sharer format)\n");
    return 0;
}
