#include "spans.hh"

#include <fstream>

#include "common/logging.hh"

namespace simbench {

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin_)
        .count();
}

double
SpanLog::seconds(int id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const Span &s = spans_[static_cast<std::size_t>(id)];
    return (s.end_us - s.start_us) * 1e-6;
}

int
SpanLog::open(const char *name, int parent, unsigned cell, unsigned tid)
{
    const double t = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, t, parent, cell, tid, 0.0});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int id)
{
    const double t = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = t;
}

int
SpanLog::add(const char *name, int parent, unsigned cell, unsigned tid,
             double start_us, double end_us)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_us, end_us, parent, cell, tid, 0.0});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::aggregate(int parent, const char *name, double total_us,
                   std::uint64_t count)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (parent != noParent)
        spans_[static_cast<std::size_t>(parent)].aggregated_us +=
            total_us;
    Totals &t = aggregates_[name];
    t.total_us += total_us;
    t.self_us += total_us;
    t.count += count;
}

std::map<std::string, SpanLog::Totals>
SpanLog::totals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent != noParent)
            child_us[static_cast<std::size_t>(s.parent)] +=
                s.end_us - s.start_us;
    std::map<std::string, Totals> out = aggregates_;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double dur = s.end_us - s.start_us;
        Totals &t = out[s.name];
        t.total_us += dur;
        t.self_us += dur - child_us[i] - s.aggregated_us;
        ++t.count;
    }
    return out;
}

bool
SpanLog::writeChrome(const std::string &path,
                     const spp::Json &manifest) const
{
    std::lock_guard<std::mutex> lock(mu_);
    spp::Json events = spp::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        spp::Json e = spp::Json::object();
        e["name"] = spp::Json(s.name);
        e["ph"] = spp::Json("X");
        e["ts"] = spp::Json(s.start_us);
        e["dur"] = spp::Json(s.end_us - s.start_us);
        e["pid"] = spp::Json(1);
        e["tid"] = spp::Json(s.tid);
        spp::Json args = spp::Json::object();
        args["cell"] = spp::Json(s.cell);
        args["id"] = spp::Json(static_cast<unsigned long long>(i));
        args["parent"] = spp::Json(s.parent);
        if (s.aggregated_us > 0)
            args["unlogged_children_us"] = spp::Json(s.aggregated_us);
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    spp::Json doc = spp::Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = spp::Json("ms");
    doc["metadata"] = manifest;
    std::ofstream out(path);
    if (out)
        doc.write(out);
    if (!out) {
        spp::warn("cannot write span trace {}", path);
        return false;
    }
    return true;
}

} // namespace simbench
