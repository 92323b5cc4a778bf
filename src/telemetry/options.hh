/**
 * @file
 * Telemetry knobs. Deliberately a leaf header (strings only)
 * so ExperimentConfig can embed the options without pulling the
 * whole telemetry subsystem into every translation unit.
 */

#ifndef SPP_TELEMETRY_OPTIONS_HH
#define SPP_TELEMETRY_OPTIONS_HH

#include <string>

namespace spp {

struct TelemetryOptions
{
    /** Output directory for all sidecar files; empty = telemetry is
     * disabled and the run pays zero observation cost. */
    std::string dir;

    bool enabled() const { return !dir.empty(); }

    /** SPP_TELEMETRY (dir). */
    static TelemetryOptions fromEnv();
};

/** Replace everything but [A-Za-z0-9._-] with '_' so labels derived
 * from workload/protocol names are safe file stems. */
std::string sanitizeFileLabel(const std::string &label);

} // namespace spp

#endif // SPP_TELEMETRY_OPTIONS_HH
