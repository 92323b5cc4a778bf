/**
 * @file
 * Shared experiment harness: one call to run a (workload, protocol,
 * predictor) combination and collect results; used by every bench
 * binary and the integration tests.
 */

#ifndef SPP_ANALYSIS_EXPERIMENT_HH
#define SPP_ANALYSIS_EXPERIMENT_HH

#include <memory>
#include <optional>
#include <string>

#include "analysis/attribution.hh"
#include "analysis/energy.hh"
#include "analysis/trace.hh"
#include "common/config.hh"
#include "service/options.hh"
#include "sim/cmp_system.hh"
#include "telemetry/options.hh"
#include "workload/workload.hh"

namespace spp {

/** Knobs of one experiment run. */
struct ExperimentConfig
{
    /** The full simulator configuration (protocol, predictor, seed,
     * topology, latencies, ...). Set fields directly — the harness
     * no longer mirrors any of them. */
    Config config;

    double scale = 1.0;             ///< Workload iteration scale.
    bool collectTrace = false;
    bool recordMissTargets = false; ///< Per-miss targets in the trace.
    bool checkCoherence = false;    ///< Run invariant checkers after.

    /** Telemetry sidecars (Chrome trace, manifest); disabled unless
     * telemetry.dir is set. */
    TelemetryOptions telemetry;
    /** Per-sync-point attribution profiling (attribution.{json,txt}
     * artifacts); disabled unless attribution.dir is set. */
    AttributionOptions attribution;
    /** A `.spptrace` file (trace/replay.hh) that drives the machine
     * instead of the workload's generator; empty = a live run. */
    std::string replayTrace;
    /** Content-addressed result cache (service/result_store.hh):
     * with a store dir, cacheable runs are served from a warm entry
     * when one matches the cell key and simulate + populate the
     * entry otherwise. Off unless resultStore.dir is set. */
    ResultStoreOptions resultStore;
    /** File stem of this run's sidecars (telemetry and attribution);
     * defaults to the workload name (the sweep engine assigns unique
     * per-job labels). */
    std::string telemetryLabel;

    /** Touch the built system before the run (e.g. profile seeding,
     * thread-map changes). */
    // lint: allow(std-function) — setup-time binding, not per-event.
    std::function<void(CmpSystem &)> prepare;
};

/** Results of one experiment run. */
struct ExperimentResult
{
    RunResult run;
    double energy = 0.0;            ///< NoC + snoop energy (model).
    std::unique_ptr<CommTrace> trace; ///< When collectTrace was set.
    /** When attribution was enabled: the profiler with the run's
     * full attribution store (artifacts are already written). */
    std::unique_ptr<AttributionProfiler> attribution;

    // Convenience metrics used across figures.
    double commMissFraction() const;
    double avgMissLatency() const;
    double bytesPerMiss() const;
    /** Fraction of communicating misses serviced without directory
     * indirection (prediction sufficient). */
    double predictionAccuracy() const;
    /** Communicating misses that still needed the directory, in
     * percent of all misses (Fig. 12 y; 0 without misses). */
    double indirectionPct() const;
};

/** Run @p workload_name under @p cfg; fatal on unknown workload. */
ExperimentResult runExperiment(const std::string &workload_name,
                               const ExperimentConfig &cfg);

/** The workload scale benches use: SPP_BENCH_SCALE (a number > 0;
 * fatal otherwise), else 1. */
double defaultBenchScale();

} // namespace spp

#endif // SPP_ANALYSIS_EXPERIMENT_HH
