#include "telemetry/sampler.hh"

#include <ostream>

#include "common/logging.hh"
#include "telemetry/json.hh"

namespace spp {

Sampler::Sampler(MetricRegistry registry, Tick period)
    : reg_(std::move(registry)), period_(period)
{
    SPP_ASSERT(period_ > 0, "sampler period must be non-zero");
}

Sampler::~Sampler()
{
    if (eq_ != nullptr)
        eq_->setTickObserver(nullptr);
}

void
Sampler::attach(EventQueue &eq)
{
    SPP_ASSERT(eq_ == nullptr, "sampler attached twice");
    eq_ = &eq;
    eq.setTickObserver(this, period_);
    sample(eq.curTick());
}

void
Sampler::onBoundary(Tick boundary)
{
    sample(boundary);
}

void
Sampler::finalize()
{
    if (eq_ == nullptr)
        return;
    // When the run ends exactly on a boundary, that row was sampled
    // *before* the boundary-tick events ran; drop it and re-sample so
    // the final row always reflects the end-of-run state.
    if (!rows_.empty() && rows_.back().tick == eq_->curTick())
        rows_.pop_back();
    sample(eq_->curTick());
    eq_->setTickObserver(nullptr);
    eq_ = nullptr;
}

void
Sampler::sample(Tick t)
{
    Row row;
    row.tick = t;
    row.values.reserve(reg_.size());
    for (std::size_t i = 0; i < reg_.size(); ++i)
        row.values.push_back(reg_.read(i));
    rows_.push_back(std::move(row));
}

double
Sampler::delta(std::size_t row, std::size_t metric) const
{
    const double cur = rows_[row].values[metric];
    return row == 0 ? cur : cur - rows_[row - 1].values[metric];
}

void
Sampler::writeCsv(std::ostream &os) const
{
    os << "tick";
    for (std::size_t i = 0; i < reg_.size(); ++i)
        os << ',' << reg_.name(i);
    os << '\n';
    for (const Row &row : rows_) {
        os << row.tick;
        for (double v : row.values) {
            os << ',';
            writeJsonNumber(os, v);
        }
        os << '\n';
    }
}

} // namespace spp
