/**
 * @file
 * RunTelemetry: the facade wiring all telemetry pieces into one
 * simulated run.
 *
 * attach() hooks a CmpSystem: it starts a Chrome-trace timeline
 * (per-core sync-epoch duration tracks, miss and sync-point
 * instants) and opens the run manifest. finish() closes the epochs
 * still open and writes both sidecar files:
 *
 *   <dir>/<label>.trace.json      chrome://tracing / Perfetto
 *   <dir>/<label>.manifest.json   config hash, git, phases, summary
 *
 * With TelemetryOptions disabled (empty dir) every method is an
 * inert no-op: nothing is allocated, no observer is installed and
 * the simulated run is bit-identical to an unobserved one.
 */

#ifndef SPP_TELEMETRY_TELEMETRY_HH
#define SPP_TELEMETRY_TELEMETRY_HH

#include <memory>
#include <string>

#include "sim/cmp_system.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/manifest.hh"
#include "telemetry/options.hh"

namespace spp {

class RunTelemetry
{
  public:
    RunTelemetry(TelemetryOptions opts, std::string label);
    ~RunTelemetry();

    bool enabled() const { return opts_.enabled(); }
    bool attached() const { return sys_ != nullptr; }

    /** Hook @p sys; creates the output directory. No-op if
     * disabled. Must precede CmpSystem::run(). */
    void attach(CmpSystem &sys);

    /** Close the open epochs and write both sidecar files. No-op if
     * never attached. Idempotent. */
    void finish(const RunResult &result);

    /** The manifest, for callers adding fields before finish(). */
    RunManifest &manifest() { return manifest_; }

    const ChromeTraceWriter *trace() const { return trace_.get(); }

    std::string tracePath() const { return base() + ".trace.json"; }
    std::string manifestPath() const
    {
        return base() + ".manifest.json";
    }

  private:
    struct EpochRecorder;

    std::string base() const;

    TelemetryOptions opts_;
    std::string label_;
    CmpSystem *sys_ = nullptr;
    bool finished_ = false;
    std::unique_ptr<ChromeTraceWriter> trace_;
    std::unique_ptr<EpochRecorder> epochs_;
    RunManifest manifest_;
};

} // namespace spp

#endif // SPP_TELEMETRY_TELEMETRY_HH
