#include "telemetry/chrome_trace.hh"

#include <ostream>

namespace spp {

namespace {

/** Common skeleton of one trace event. */
Json
base(const char *ph, const std::string &name, unsigned tid, Tick ts)
{
    Json e = Json::object();
    e["name"] = Json(name);
    e["ph"] = Json(ph);
    e["ts"] = Json(ts);
    e["pid"] = Json(0);
    e["tid"] = Json(tid);
    return e;
}

} // namespace

ChromeTraceWriter::ChromeTraceWriter(std::size_t max_events)
    : max_events_(max_events)
{
}

bool
ChromeTraceWriter::admit()
{
    if (events_.size() >= max_events_) {
        ++dropped_;
        return false;
    }
    return true;
}

void
ChromeTraceWriter::setProcessName(const std::string &name)
{
    Json e = base("M", "process_name", 0, 0);
    e["args"]["name"] = Json(name);
    metadata_.push_back(std::move(e));
}

void
ChromeTraceWriter::setThreadName(unsigned tid, const std::string &name)
{
    Json e = base("M", "thread_name", tid, 0);
    e["args"]["name"] = Json(name);
    metadata_.push_back(std::move(e));
}

void
ChromeTraceWriter::duration(const std::string &name,
                            const std::string &category, unsigned tid,
                            Tick begin, Tick end, Json args)
{
    if (!admit())
        return;
    Json e = base("X", name, tid, begin);
    e["cat"] = Json(category);
    e["dur"] = Json(end - begin);
    if (!args.isNull())
        e["args"] = std::move(args);
    events_.push_back(std::move(e));
}

void
ChromeTraceWriter::instant(const std::string &name,
                           const std::string &category, unsigned tid,
                           Tick ts, Json args)
{
    if (!admit())
        return;
    Json e = base("i", name, tid, ts);
    e["cat"] = Json(category);
    e["s"] = Json("t"); // Thread-scoped.
    if (!args.isNull())
        e["args"] = std::move(args);
    events_.push_back(std::move(e));
}

Json
ChromeTraceWriter::toJson() const
{
    Json doc = Json::object();
    Json evs = Json::array();
    for (const Json &e : metadata_)
        evs.push(e);
    for (const Json &e : events_)
        evs.push(e);
    doc["traceEvents"] = std::move(evs);
    doc["displayTimeUnit"] = Json("ms");
    Json other = Json::object();
    other["droppedEvents"] = Json(dropped_);
    doc["otherData"] = std::move(other);
    return doc;
}

void
ChromeTraceWriter::write(std::ostream &os) const
{
    toJson().write(os);
    os << '\n';
}

} // namespace spp
