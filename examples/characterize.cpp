/**
 * @file
 * Characterization example (the paper's Section 3 study on one
 * workload): runs a workload under the directory protocol with
 * tracing and reports the communicating-miss ratio, communication
 * locality at three granularities, the hot-set size distribution,
 * hot-set patterns across dynamic epoch instances, and Table 1-style
 * sync-epoch statistics.
 *
 * Usage: characterize [workload] [scale]
 *
 * A malformed scale exits 2 naming the argument and the text.
 */

#include <cstdio>
#include <string>

#include "analysis/epoch_stats.hh"
#include "analysis/experiment.hh"
#include "analysis/locality.hh"
#include "analysis/patterns.hh"
#include "analysis/report.hh"
#include "analysis/sweep.hh"

using namespace spp;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "bodytrack";
    double scale = 1.0;
    if (argc > 2) {
        const std::string err = parsePositive("scale", argv[2], scale);
        if (!err.empty()) {
            std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
            return 2;
        }
    }

    ExperimentConfig cfg;
    cfg.scale = scale;
    cfg.collectTrace = true;
    // A single job, but routed through the sweep engine so the
    // example exercises the same code path as the bench drivers.
    ExperimentResult r = std::move(runSweep({{workload, cfg, ""}})[0]);
    const CommTrace &trace = *r.trace;

    std::printf("Characterization of '%s' (16 cores, directory "
                "MESIF)\n", workload.c_str());

    banner("Miss profile");
    std::printf("misses: %lu, communicating: %lu (%.1f%%), "
                "off-chip: %lu\n",
                static_cast<unsigned long>(r.run.mem.misses.value()),
                static_cast<unsigned long>(
                    r.run.mem.communicatingMisses.value()),
                100.0 * r.commMissFraction(),
                static_cast<unsigned long>(
                    r.run.mem.offChipMisses.value()));

    banner("Communication locality (cumulative % by top-k targets)");
    const LocalityCurve epoch = epochLocality(trace);
    const LocalityCurve whole = wholeRunLocality(trace);
    const LocalityCurve inst = instructionLocality(trace);
    Table lt({"k", "sync-epoch", "whole-run", "instruction"});
    for (unsigned k = 0; k < 8; ++k) {
        lt.cell(k + 1).cell(100.0 * epoch[k], 1)
            .cell(100.0 * whole[k], 1).cell(100.0 * inst[k], 1)
            .endRow();
    }
    lt.print();

    banner("Hot-set size distribution (10% threshold)");
    const auto dist = hotSetSizeDistribution(trace, 0.10);
    Table ht({"size", "fraction of epochs"});
    const char *labels[] = {"1", "2", "3", "4", ">=5"};
    for (unsigned i = 0; i < 5; ++i)
        ht.cell(labels[i]).cell(dist[i], 3).endRow();
    ht.print();

    banner("Hot-set patterns across dynamic instances");
    auto infos = classifyEpochPatterns(trace, 0.10, 8);
    auto hist = patternHistogram(infos);
    Table pt({"pattern", "static epochs"});
    for (const auto &[pattern, count] : hist)
        pt.cell(toString(pattern)).cell(count).endRow();
    pt.print();

    banner("Sync-epoch statistics (Table 1 style)");
    const EpochStats es = computeEpochStats(trace);
    std::printf("static critical sections: %u\n",
                es.staticCriticalSections);
    std::printf("static sync-epochs:       %u\n",
                es.staticSyncEpochs);
    std::printf("dynamic epochs per core:  %.0f\n",
                es.dynEpochsPerCore);
    return 0;
}
