/**
 * @file
 * spp runner: a small command-line front end for one-off experiment
 * runs — pick a workload, protocol, predictor and knobs; get a
 * readable statistics summary, or with --raw the full spp-result-v2
 * JSON document (the result store's and the fingerprint's format).
 *
 * Usage:
 *   runner --workload ocean --protocol predicted --predictor sp
 *          [--scale 1.0] [--seed 1] [--entries N] [--filter]
 *          [--depth 2] [--threshold 0.10] [--raw] [--list]
 *
 * The Config knobs parse exactly like a bench driver's --set
 * FIELD=VALUE; a malformed value exits 2 naming the flag.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "analysis/experiment.hh"
#include "analysis/report.hh"
#include "service/result_codec.hh"
#include "workload/workload.hh"

using namespace spp;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workload NAME] [--protocol directory|broadcast|"
        "predicted|multicast]\n"
        "          [--predictor sp|addr|inst|uni] [--scale S] "
        "[--seed N]\n"
        "          [--entries N] [--filter] [--depth D] "
        "[--threshold T] [--raw] [--list]\n",
        argv0);
    std::exit(2);
}

/** Flags that set one Config field, by its configSetField name. */
constexpr struct
{
    const char *flag;
    const char *field;
} fieldFlags[] = {
    {"--protocol", "protocol"},
    {"--predictor", "predictor"},
    {"--seed", "seed"},
    {"--entries", "predictorEntries"},
    {"--depth", "historyDepth"},
    {"--threshold", "hotThreshold"},
};

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "ocean";
    ExperimentConfig cfg;
    bool raw = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto check = [&](const std::string &err) {
            if (err.empty())
                return;
            std::fprintf(stderr, "%s: %s: %s\n", argv[0], arg.c_str(),
                         err.c_str());
            std::exit(2);
        };
        const auto knob =
            std::find_if(std::begin(fieldFlags), std::end(fieldFlags),
                         [&](const auto &f) { return arg == f.flag; });
        if (knob != std::end(fieldFlags)) {
            check(configSetField(cfg.config, knob->field, next()));
        } else if (arg == "--list") {
            for (const auto &spec : workloadRegistry())
                std::printf("%-14s (%s, input %s)\n",
                            spec.name.c_str(), spec.suite.c_str(),
                            spec.input.c_str());
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--scale") {
            check(parsePositive("scale", next(), cfg.scale));
        } else if (arg == "--filter") {
            cfg.config.enableSharingFilter = true;
        } else if (arg == "--raw") {
            raw = true;
        } else {
            usage(argv[0]);
        }
    }

    if ((cfg.config.protocol == Protocol::predicted ||
         cfg.config.protocol == Protocol::multicast) &&
        cfg.config.predictor == PredictorKind::none) {
        cfg.config.predictor = PredictorKind::sp;
    }
    ExperimentResult r = runExperiment(workload, cfg);
    const RunResult &run = r.run;

    if (raw) {
        // Machine-readable: every statistic, as the result store
        // writes it.
        std::printf("%s\n", resultToJson(r).dump().c_str());
        return 0;
    }

    std::printf("workload %s, protocol %s, predictor %s, scale %g, "
                "seed %lu\n",
                workload.c_str(), toString(cfg.config.protocol),
                toString(cfg.config.predictor), cfg.scale,
                static_cast<unsigned long>(cfg.config.seed));

    banner("Execution");
    std::printf("cycles                 %lu\n",
                static_cast<unsigned long>(run.ticks));
    std::printf("events executed        %lu\n",
                static_cast<unsigned long>(run.eventsExecuted));

    banner("Memory system");
    std::printf("accesses               %lu\n",
                static_cast<unsigned long>(run.mem.accesses.value()));
    std::printf("L1 hits                %lu\n",
                static_cast<unsigned long>(run.mem.l1Hits.value()));
    std::printf("L2 hits                %lu\n",
                static_cast<unsigned long>(run.mem.l2Hits.value()));
    std::printf("misses                 %lu\n",
                static_cast<unsigned long>(run.mem.misses.value()));
    std::printf("  communicating        %lu (%.1f%%)\n",
                static_cast<unsigned long>(
                    run.mem.communicatingMisses.value()),
                100.0 * r.commMissFraction());
    std::printf("  off-chip             %lu\n",
                static_cast<unsigned long>(
                    run.mem.offChipMisses.value()));
    std::printf("  upgrades             %lu\n",
                static_cast<unsigned long>(
                    run.mem.upgradeMisses.value()));
    std::printf("writebacks             %lu\n",
                static_cast<unsigned long>(
                    run.mem.writebacks.value()));
    std::printf("avg miss latency       %.1f cycles\n",
                run.mem.missLatency.mean());
    std::printf("  communicating        %.1f cycles\n",
                run.mem.commMissLatency.mean());
    std::printf("  non-communicating    %.1f cycles\n",
                run.mem.nonCommMissLatency.mean());

    if (cfg.config.predictor != PredictorKind::none) {
        banner("Prediction");
        std::printf("attempted              %lu\n",
                    static_cast<unsigned long>(
                        run.mem.predictionsAttempted.value()));
        std::printf("suppressed (filter)    %lu\n",
                    static_cast<unsigned long>(
                        run.mem.predictionsSuppressed.value()));
        std::printf("sufficient             %lu (%.1f%% of comm)\n",
                    static_cast<unsigned long>(
                        run.mem.predictionsSufficient.value()),
                    100.0 * r.predictionAccuracy());
        std::printf("avg predicted targets  %.2f\n",
                    run.mem.predictedTargets.mean());
        std::printf("avg actual targets     %.2f\n",
                    run.mem.actualTargets.mean());
        std::printf("predictor storage      %.2f KB\n",
                    static_cast<double>(run.predictorStorageBits) /
                        8.0 / 1024.0);
        std::printf("table accesses         %lu\n",
                    static_cast<unsigned long>(
                        run.predictorTableAccesses));
    }

    banner("NoC");
    std::printf("packets                %lu\n",
                static_cast<unsigned long>(run.noc.packets.value()));
    std::printf("bytes                  %lu (%.1f per miss)\n",
                static_cast<unsigned long>(run.noc.flitBytes.value()),
                r.bytesPerMiss());
    std::printf("avg packet latency     %.1f cycles\n",
                run.noc.packetLatency.mean());
    std::printf("snoop lookups          %lu\n",
                static_cast<unsigned long>(
                    run.mem.snoopLookups.value()));
    std::printf("energy (model units)   %.0f\n", r.energy);

    banner("Synchronization");
    std::printf("sync points            %lu\n",
                static_cast<unsigned long>(
                    run.sync.syncPoints.value()));
    std::printf("barriers released      %lu\n",
                static_cast<unsigned long>(
                    run.sync.barriersReleased.value()));
    std::printf("lock acquisitions      %lu (%lu contended)\n",
                static_cast<unsigned long>(
                    run.sync.lockAcquisitions.value()),
                static_cast<unsigned long>(
                    run.sync.lockContended.value()));
    return 0;
}
