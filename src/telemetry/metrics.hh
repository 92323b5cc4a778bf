/**
 * @file
 * MetricRegistry: the set of named values the telemetry sampler
 * snapshots into a time series.
 *
 * A metric is either *cumulative* (a monotonically increasing count:
 * a Counter or a raw std::uint64_t cell owned by a subsystem) or a
 * *gauge* (an instantaneous level computed on demand, e.g. the
 * number of outstanding line locks). Cumulative metrics are sampled
 * by snapshot — never by Counter::reset()/exchange() — so the
 * end-of-run aggregates the reports print remain intact and the
 * final sampler row reconciles with them exactly.
 *
 * Registered pointers are borrowed: the owning subsystem must
 * outlive the sampler (they do — both live inside one experiment
 * scope), and the pointed-to cells must not move (the per-core and
 * per-link vectors are sized once at construction).
 */

#ifndef SPP_TELEMETRY_METRICS_HH
#define SPP_TELEMETRY_METRICS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace spp {

class MetricRegistry
{
  public:
    // lint: allow(std-function) — sampled at report time only.
    using Gauge = std::function<double()>;

    /** Register a cumulative Counter. */
    void
    addCounter(std::string name, const Counter &c)
    {
        metrics_.push_back(
            {std::move(name), true, &c, nullptr, nullptr});
    }

    /** Register a cumulative raw cell (per-core / per-link arrays). */
    void
    addCell(std::string name, const std::uint64_t &cell)
    {
        metrics_.push_back(
            {std::move(name), true, nullptr, &cell, nullptr});
    }

    /** Register an instantaneous gauge. */
    void
    addGauge(std::string name, Gauge fn)
    {
        metrics_.push_back(
            {std::move(name), false, nullptr, nullptr, std::move(fn)});
    }

    std::size_t size() const { return metrics_.size(); }

    const std::string &name(std::size_t i) const
    {
        return metrics_[i].name;
    }

    /** Cumulative metrics chart best as per-interval deltas; gauges
     * as raw levels. */
    bool cumulative(std::size_t i) const
    {
        return metrics_[i].cumulative;
    }

    /** Current value of metric @p i. */
    double
    read(std::size_t i) const
    {
        const Metric &m = metrics_[i];
        if (m.counter != nullptr)
            return static_cast<double>(m.counter->value());
        if (m.cell != nullptr)
            return static_cast<double>(*m.cell);
        return m.gauge();
    }

  private:
    struct Metric
    {
        std::string name;
        bool cumulative;
        const Counter *counter;
        const std::uint64_t *cell;
        Gauge gauge;
    };

    std::vector<Metric> metrics_;
};

} // namespace spp

#endif // SPP_TELEMETRY_METRICS_HH
