#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/hash.hh"
#include "simbench.hh"

namespace simbench {

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper16", "snoop16", "wide256", "figures"};
    return names;
}

double
defaultScale(const std::string &workload)
{
    // Sized so one pass takes about a second on a 4-core host: a
    // 10-20 s run then yields enough passes for a stable median.
    if (workload == "paper16")
        return 0.25;
    if (workload == "snoop16")
        return 0.06;
    if (workload == "wide256")
        return 0.03;
    return 0.1; // figures
}

std::vector<Cell>
serialCells(const Options &o)
{
    std::vector<Cell> cells;
    auto base = [&o] {
        spp::Config c;
        c.seed = o.seed;
        c.maxTicks = o.maxTicks;
        return c;
    };
    if (o.workload == "paper16" || o.workload == "snoop16") {
        const bool sp = o.workload == "paper16";
        for (const spp::WorkloadSpec &spec : spp::workloadRegistry()) {
            Cell cell;
            cell.program = spec.name;
            cell.cfg = base();
            cell.cfg.protocol = sp ? spp::Protocol::predicted
                                   : spp::Protocol::broadcast;
            cell.cfg.predictor = sp ? spp::PredictorKind::sp
                                    : spp::PredictorKind::none;
            cell.label = spec.name + (sp ? "/predicted-sp" : "/broadcast");
            cells.push_back(std::move(cell));
        }
    } else if (o.workload == "wide256") {
        // fft is left out: its problem size ignores the scale.
        for (const char *program : {"ocean", "radiosity", "streamcluster"})
            for (const spp::SharerFormat f :
                 {spp::SharerFormat::coarse, spp::SharerFormat::limited}) {
                Cell cell;
                cell.program = program;
                cell.cfg = base();
                cell.cfg.numCores = 256;
                cell.cfg.meshX = 16;
                cell.cfg.meshY = 16;
                cell.cfg.protocol = spp::Protocol::directory;
                cell.cfg.sharerFormat = f;
                cell.cfg.coarseCoresPerBit = 4;
                cell.cfg.sharerPointers = 4;
                cell.label = std::string(program) + "/directory/" +
                    spp::toString(f);
                cells.push_back(std::move(cell));
            }
    }
    return cells;
}

spp::CmpSystem::ThreadFn
liveThreadFn(const std::string &program, double scale)
{
    const spp::WorkloadSpec *spec = spp::findWorkload(program);
    spp::WorkloadParams params;
    params.scale = scale;
    return [spec, params](spp::ThreadContext &ctx) {
        return spec->run(ctx, params);
    };
}

namespace {

void
mixAverage(spp::StateHasher &h, const spp::Average &a)
{
    auto bits = [](double d) {
        std::uint64_t u = 0;
        static_assert(sizeof u == sizeof d);
        std::memcpy(&u, &d, sizeof u);
        return u;
    };
    h.mix(bits(a.sum()));
    h.mix(a.count());
    h.mix(bits(a.max()));
    h.mix(bits(a.min()));
}

} // namespace

std::uint64_t
statsDigest(const spp::RunResult &r)
{
    spp::StateHasher h;
    h.mix(r.ticks);
    const spp::MemSysStats &m = r.mem;
    for (const spp::Counter *c :
         {&m.accesses, &m.l1Hits, &m.l2Hits, &m.misses,
          &m.upgradeMisses, &m.communicatingMisses, &m.offChipMisses,
          &m.writebacks, &m.snoopLookups, &m.predictionsAttempted,
          &m.predictionsSuppressed, &m.predictionsOnCommunicating,
          &m.predictionsOnNonComm, &m.predictionsSufficient,
          &m.predWasteBytesComm, &m.predWasteBytesNonComm})
        h.mix(c->value());
    for (const std::uint64_t v : m.sufficientBySource)
        h.mix(v);
    for (const spp::Average *a :
         {&m.missLatency, &m.commMissLatency, &m.nonCommMissLatency,
          &m.hitLatency, &m.actualTargets, &m.predictedTargets})
        mixAverage(h, *a);
    const spp::NocStats &n = r.noc;
    for (const spp::Counter *c : {&n.packets, &n.flitBytes, &n.byteHops,
                                  &n.byteRouters, &n.routerTraversals})
        h.mix(c->value());
    mixAverage(h, n.packetLatency);
    for (const std::uint64_t v : n.bytesByClass)
        h.mix(v);
    const spp::SyncStats &s = r.sync;
    for (const spp::Counter *c :
         {&s.syncPoints, &s.barriersReleased, &s.lockAcquisitions,
          &s.lockContended, &s.wakeups})
        h.mix(c->value());
    const spp::SpStats &sp = r.sp;
    for (const spp::Counter *c :
         {&sp.epochsStarted, &sp.noisyEpochs, &sp.recoveries,
          &sp.lockEpochs, &sp.warmupExtractions, &sp.patternHits})
        h.mix(c->value());
    h.mix(r.predictorStorageBits);
    h.mix(r.predictorTableAccesses);
    h.mix(r.indirectionsAvoided);
    return h.value();
}

void
Tally::fail(const std::string &why)
{
    ++failed;
    if (messages.size() < 20)
        messages.push_back(why);
}

namespace {

std::string
scaleKey(double scale)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", scale);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

} // namespace

DigestBook::DigestBook(const Options &o, double scale)
    : prefix_(o.workload + " " + scaleKey(scale)),
      write_path_(o.writeDigest)
{
    // Committed digests are for seed 1 only; other seeds check that
    // every rep of a cell repeats the first one exactly.
    if (o.seed != 1 || o.digestFile.empty())
        return;
    std::ifstream in(o.digestFile);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string workload, sc, label, value;
        if (!(ls >> workload >> sc >> label >> value))
            continue;
        if (workload + " " + sc != prefix_)
            continue;
        committed_[label] = std::stoull(value, nullptr, 16);
        use_committed_ = true;
    }
}

std::string
DigestBook::check(const std::string &label, std::uint64_t digest)
{
    const auto [it, first] = first_.emplace(label, digest);
    if (first)
        order_.push_back(label);
    else if (it->second != digest)
        return "modelled statistics differ between reps (" +
            hex(it->second) + " then " + hex(digest) + ")";
    if (!use_committed_)
        return "";
    const auto c = committed_.find(label);
    ++committed_checks_;
    if (c == committed_.end())
        return "no committed digest";
    if (c->second != digest)
        return "digest mismatch (committed " + hex(c->second) +
            ", got " + hex(digest) + ")";
    return "";
}

void
DigestBook::finish() const
{
    std::printf("digests: %zu distinct cells, %zu checks against the "
                "committed seed-1 digests\n",
                first_.size(), committed_checks_);
    if (write_path_.empty())
        return;
    std::ofstream out(write_path_, std::ios::app);
    for (const std::string &label : order_)
        out << prefix_ << ' ' << label << ' ' << hex(first_.at(label))
            << '\n';
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void
Report::add(const std::string &name, const std::string &unit,
            double value, const std::string &note)
{
    metrics_.push_back({name, unit, value, {}, note});
}

void
Report::addSamples(const std::string &name, const std::string &unit,
                   std::vector<double> samples, const std::string &note)
{
    const double m = median(samples);
    metrics_.push_back({name, unit, m, std::move(samples), note});
}

void
Report::print() const
{
    std::printf("%-30s %14s %-14s %s\n", "metric", "value", "unit",
                "samples / note");
    for (const Metric &m : metrics_) {
        std::string extra;
        if (!m.samples.empty()) {
            // The highest percentile with at least ten samples
            // beyond it, if the run collected enough samples.
            const double n = static_cast<double>(m.samples.size());
            char buf[96];
            double best = 0;
            for (const double p : {50.0, 90.0, 99.0})
                if (n * (1.0 - p / 100.0) >= 10.0)
                    best = p;
            if (best > 50.0)
                std::snprintf(buf, sizeof buf, "median of n=%zu, p%g=%.6g",
                              m.samples.size(), best,
                              percentile(m.samples, best));
            else
                std::snprintf(buf, sizeof buf,
                              "median of n=%zu (too few samples for a "
                              "tail percentile)",
                              m.samples.size());
            extra = buf;
        }
        if (!m.note.empty())
            extra += (extra.empty() ? "" : "; ") + m.note;
        std::printf("%-30s %14.6g %-14s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), extra.c_str());
    }
}

spp::Json
Report::json() const
{
    spp::Json out = spp::Json::object();
    for (const Metric &m : metrics_) {
        spp::Json v = spp::Json::object();
        v["value"] = spp::Json(m.value);
        v["unit"] = spp::Json(m.unit);
        out[m.name] = std::move(v);
    }
    return out;
}

} // namespace simbench
