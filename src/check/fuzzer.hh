/**
 * @file
 * Deterministic protocol stress-fuzzer.
 *
 * One FuzzCase = one seeded random workload (workload/fuzz.hh) run on
 * one protocol/predictor combination against deliberately tiny caches
 * with a ProtocolChecker attached in record mode. A case "fails" when
 * the run times out, deadlocks, or the checker records any invariant
 * violation; the failing seed can then be shrunk to a minimal
 * reproducer (greedy halving of the workload shape) and rendered as a
 * bench/fuzz_protocol command line for replay.
 */

#ifndef SPP_CHECK_FUZZER_HH
#define SPP_CHECK_FUZZER_HH

#include <string>
#include <vector>

#include "check/protocol_checker.hh"
#include "common/config.hh"
#include "sim/cmp_system.hh"
#include "telemetry/options.hh"
#include "workload/fuzz.hh"

namespace spp {

/** Everything defining one fuzz run; fully reproducible. */
struct FuzzCase
{
    Protocol protocol = Protocol::directory;
    PredictorKind predictor = PredictorKind::none;
    wl::FuzzWorkloadParams workload;
    unsigned numCores = 8;
    SharerFormat sharerFormat = SharerFormat::full;
    unsigned injectBug = 0;     ///< Config::injectBug pass-through.

    /** Optional telemetry sidecars (series/trace/manifest) per case;
     * disabled unless telemetry.dir is set. Shrinking suppresses
     * them. */
    TelemetryOptions telemetry;
    std::string telemetryLabel; ///< File stem; default "fuzz".
};

/** Outcome of one fuzz run. */
struct FuzzResult
{
    RunStatus status = RunStatus::ok;
    std::vector<Violation> violations;
    std::uint64_t messagesChecked = 0;
    Tick ticks = 0;
    std::string trace;          ///< Checker message ring (failures).
    std::string outstanding;    ///< dumpOutstanding (hangs).

    bool
    failed() const
    {
        return status != RunStatus::ok || !violations.empty();
    }
};

/**
 * Build the (small-cache) Config a fuzz case runs under. Its maxTicks,
 * the ticks a case may run before it counts as a timeout, is
 * 5,000,000 up to 64 cores and grows in proportion to the core count
 * past them, since every lock hand-off and barrier serializes more
 * cores (a 256-core broadcast case needs 5,058,474). The checker's
 * watchdog flags a transaction older than a quarter of it.
 */
Config fuzzConfig(const FuzzCase &c);

/** Run one case to completion; never terminates the process. */
FuzzResult runFuzzCase(const FuzzCase &c);

/**
 * Greedily shrink a failing case: repeatedly halve each workload
 * knob, keeping a change when the case still fails, spending at most
 * @p budget extra runs. Returns the smallest still-failing case
 * (possibly the input itself).
 */
FuzzCase shrinkFuzzCase(const FuzzCase &failing, unsigned budget = 24);

/** Render the case as a replayable bench/fuzz_protocol invocation. */
std::string describeFuzzCase(const FuzzCase &c);

} // namespace spp

#endif // SPP_CHECK_FUZZER_HH
