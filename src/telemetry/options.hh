/**
 * @file
 * Telemetry knobs. Deliberately a leaf header (types + strings only)
 * so ExperimentConfig can embed the options without pulling the
 * whole telemetry subsystem into every translation unit.
 */

#ifndef SPP_TELEMETRY_OPTIONS_HH
#define SPP_TELEMETRY_OPTIONS_HH

#include <string>

#include "common/types.hh"

namespace spp {

struct TelemetryOptions
{
    /** Output directory for all sidecar files; empty = telemetry is
     * disabled and the run pays zero observation cost. */
    std::string dir;

    /** Sampling cadence of the time-series, in ticks. */
    Tick samplePeriod = 5000;

    bool enabled() const { return !dir.empty(); }

    /** SPP_TELEMETRY (dir) and SPP_TELEMETRY_PERIOD (ticks >= 1;
     * anything else is fatal). */
    static TelemetryOptions fromEnv();
};

/** Replace everything but [A-Za-z0-9._-] with '_' so labels derived
 * from workload/protocol names are safe file stems. */
std::string sanitizeFileLabel(const std::string &label);

} // namespace spp

#endif // SPP_TELEMETRY_OPTIONS_HH
