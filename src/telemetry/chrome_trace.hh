/**
 * @file
 * Chrome trace-event exporter (chrome://tracing / Perfetto JSON).
 *
 * Emits the "JSON object format" of the Trace Event specification:
 * {"traceEvents": [...]}, which both chrome://tracing and
 * ui.perfetto.dev open directly. One simulated core maps to one
 * thread track (tid = core); sync-epochs render as complete ("X")
 * duration events, misses and sync-points as instant ("i") events.
 * Simulated ticks are written as microseconds 1:1, so the viewer's
 * time axis reads in ticks.
 *
 * Event storage is bounded: past @p max_events the writer counts
 * drops instead of growing (the drop count lands in the emitted
 * metadata), keeping worst-case memory predictable on huge runs.
 */

#ifndef SPP_TELEMETRY_CHROME_TRACE_HH
#define SPP_TELEMETRY_CHROME_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/json.hh"

namespace spp {

class ChromeTraceWriter
{
  public:
    explicit ChromeTraceWriter(std::size_t max_events = 1u << 20);

    /** Label of the single process track. */
    void setProcessName(const std::string &name);

    /** Label thread track @p tid (e.g. "core 3"). */
    void setThreadName(unsigned tid, const std::string &name);

    /** Complete duration event spanning [begin, end] on @p tid. */
    void duration(const std::string &name, const std::string &category,
                  unsigned tid, Tick begin, Tick end,
                  Json args = Json());

    /** Thread-scoped instant event at @p ts. */
    void instant(const std::string &name, const std::string &category,
                 unsigned tid, Tick ts, Json args = Json());

    std::size_t events() const { return events_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /** Emit the complete JSON document. */
    void write(std::ostream &os) const;
    Json toJson() const;

  private:
    bool admit();

    std::size_t max_events_;
    std::uint64_t dropped_ = 0;
    std::vector<Json> events_;
    std::vector<Json> metadata_; ///< Name records; never dropped.
};

} // namespace spp

#endif // SPP_TELEMETRY_CHROME_TRACE_HH
