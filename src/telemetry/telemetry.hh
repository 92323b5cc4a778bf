/**
 * @file
 * RunTelemetry: the facade wiring all telemetry pieces into one
 * simulated run.
 *
 * attach() hooks a CmpSystem: it registers the standard metric set
 * (aggregate and per-core miss counters, predictor outcome counters,
 * NoC flits and per-link utilization, epoch and sync counts,
 * outstanding line locks) with a Sampler on the event queue, starts
 * a Chrome-trace timeline (per-core sync-epoch duration tracks, miss
 * and sync-point instants) and opens the run manifest. finish()
 * closes the final sampling interval, folds the sampler series into
 * counter tracks, and writes every sidecar file:
 *
 *   <dir>/<label>.series.csv      time-series of sampled metrics
 *   <dir>/<label>.trace.json      chrome://tracing / Perfetto
 *   <dir>/<label>.manifest.json   config hash, git, phases, summary
 *
 * With TelemetryOptions disabled (empty dir) every method is an
 * inert no-op: nothing is allocated, no observer is installed and
 * the simulated run is bit-identical to an unobserved one.
 */

#ifndef SPP_TELEMETRY_TELEMETRY_HH
#define SPP_TELEMETRY_TELEMETRY_HH

#include <functional>
#include <memory>
#include <string>

#include "sim/cmp_system.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/manifest.hh"
#include "telemetry/options.hh"
#include "telemetry/sampler.hh"

namespace spp {

class RunTelemetry
{
  public:
    /** Extension hook: register additional metrics (the attribution
     * profiler's attr.* counters) into the sampled set. */
    // lint: allow(std-function) — setup-time binding, not per-event.
    using ExtraMetrics = std::function<void(MetricRegistry &)>;

    /** Extension hook: annotate each closing sync-epoch with a JSON
     * snapshot (per-sync-point attribution). Called once per closed
     * epoch; the result rides the trace event's args and feeds the
     * per-sync-point counter series. */
    // lint: allow(std-function) — per-epoch, not per-event.
    using EpochAnnotator = std::function<Json(CoreId)>;

    RunTelemetry(TelemetryOptions opts, std::string label);
    ~RunTelemetry();

    bool enabled() const { return opts_.enabled(); }
    bool attached() const { return sys_ != nullptr; }

    /** Hook @p sys; creates the output directory. No-op if
     * disabled. Must precede CmpSystem::run(). */
    void attach(CmpSystem &sys);

    /** Stop sampling and write all sidecar files. No-op if never
     * attached. Idempotent. */
    void finish(const RunResult &result);

    /** The manifest, for callers adding fields before finish(). */
    RunManifest &manifest() { return manifest_; }

    /** Install the extra-metrics hook; call before attach(). */
    void setExtraMetrics(ExtraMetrics fn)
    {
        extra_metrics_ = std::move(fn);
    }

    /** Install the epoch annotator; call before attach(). When the
     * annotator reads state that the annotated sync-point also
     * resets (the attribution profiler's per-epoch snapshot), attach
     * this telemetry *before* the resetting listener so the closing
     * epoch is observed first. */
    void setEpochAnnotator(EpochAnnotator fn)
    {
        epoch_annotator_ = std::move(fn);
    }

    const Sampler *sampler() const { return sampler_.get(); }
    const ChromeTraceWriter *trace() const { return trace_.get(); }

    std::string seriesPath() const { return base() + ".series.csv"; }
    std::string tracePath() const { return base() + ".trace.json"; }
    std::string manifestPath() const
    {
        return base() + ".manifest.json";
    }

  private:
    struct EpochRecorder;

    std::string base() const;
    void registerMetrics(CmpSystem &sys);
    void emitCounterTracks();

    TelemetryOptions opts_;
    std::string label_;
    CmpSystem *sys_ = nullptr;
    bool finished_ = false;
    std::unique_ptr<Sampler> sampler_;
    std::unique_ptr<ChromeTraceWriter> trace_;
    std::unique_ptr<EpochRecorder> epochs_;
    RunManifest manifest_;
    ExtraMetrics extra_metrics_;
    EpochAnnotator epoch_annotator_;
};

} // namespace spp

#endif // SPP_TELEMETRY_TELEMETRY_HH
