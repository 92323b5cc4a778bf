/**
 * @file
 * Periodic time-series sampler.
 *
 * The sampler installs itself as the EventQueue's TickObserver and
 * snapshots every registered metric each time simulated time crosses
 * a period boundary. Boundary semantics: the row stamped tick T
 * holds the simulator state after all events at ticks < T completed
 * and before any event at tick T ran — "state at the start of tick
 * T". When one event advances time across several boundaries, one
 * row lands per boundary, all identical (nothing executed between
 * them), so the series cadence is exact regardless of event spacing.
 *
 * Sampling is non-destructive: cumulative metrics are recorded as
 * running totals (delta() derives per-interval rates), never via
 * Counter::reset()/exchange(), so the final row reconciles exactly
 * with the end-of-run aggregate statistics.
 */

#ifndef SPP_TELEMETRY_SAMPLER_HH
#define SPP_TELEMETRY_SAMPLER_HH

#include <iosfwd>
#include <vector>

#include "common/types.hh"
#include "event/event_queue.hh"
#include "telemetry/metrics.hh"

namespace spp {

class Sampler : public EventQueue::TickObserver
{
  public:
    /** One snapshot of every metric at a point in simulated time. */
    struct Row
    {
        Tick tick = 0;
        std::vector<double> values;
    };

    Sampler(MetricRegistry registry, Tick period);
    ~Sampler() override;

    /** Install on @p eq and record the initial row at curTick(). */
    void attach(EventQueue &eq);

    /**
     * Record the final, possibly partial, interval: a last row
     * stamped with the end-of-run tick captures state *after* the
     * final events ran (replacing a same-tick boundary row, which
     * preceded them), so the series always reconciles with the
     * end-of-run aggregates. Uninstalls the observer. Idempotent.
     */
    void finalize();

    void onBoundary(Tick boundary) override;

    const MetricRegistry &registry() const { return reg_; }
    Tick period() const { return period_; }
    const std::vector<Row> &rows() const { return rows_; }

    /** Delta of metric @p metric between rows @p row - 1 and @p row
     * (row 0 deltas against zero). Meaningful for cumulative
     * metrics; gauges chart as raw levels instead. */
    double delta(std::size_t row, std::size_t metric) const;

    /** "tick,metric,..." header plus one line per row. */
    void writeCsv(std::ostream &os) const;

  private:
    void sample(Tick t);

    MetricRegistry reg_;
    Tick period_;
    EventQueue *eq_ = nullptr;
    std::vector<Row> rows_;
};

} // namespace spp

#endif // SPP_TELEMETRY_SAMPLER_HH
