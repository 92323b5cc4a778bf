/**
 * @file
 * The figures workload: regenerate Fig. 7, Figs. 8-11 and the
 * multicast table as six SweepRunner sweeps, in figure order, on
 * nproc workers, with one fresh result store per pass. A pass
 * simulates 85 distinct cells and serves the other 221 from the
 * store.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "analysis/sweep.hh"
#include "service/result_store.hh"
#include "simbench.hh"
#include "telemetry/manifest.hh"
#include "traced.hh"

namespace simbench {

namespace {

constexpr std::uint64_t coldCells = 85;
constexpr std::uint64_t warmHits = 221;

struct Sweep
{
    const char *name;
    std::vector<spp::SweepJob> jobs;
    std::vector<std::string> configs;   ///< Per job, "program/config".
};

std::vector<Sweep>
figureSweeps(const Options &o, double scale, const std::string &store)
{
    auto make = [&](spp::Protocol p, spp::PredictorKind k) {
        spp::ExperimentConfig c;
        c.config.protocol = p;
        c.config.predictor = k;
        c.config.seed = o.seed;
        c.scale = scale;
        c.resultStore.dir = store;
        return c;
    };
    using P = spp::Protocol;
    using K = spp::PredictorKind;
    const spp::ExperimentConfig dir = make(P::directory, K::none);
    const spp::ExperimentConfig bc = make(P::broadcast, K::none);
    const spp::ExperimentConfig sp = make(P::predicted, K::sp);
    const spp::ExperimentConfig mc = make(P::multicast, K::sp);
    spp::ExperimentConfig traced = dir;
    traced.collectTrace = true;
    traced.recordMissTargets = true;

    using Column = std::pair<const char *, spp::ExperimentConfig>;
    auto matrix = [](const char *name, const std::vector<Column> &cols) {
        Sweep s{name, {}, {}};
        for (const spp::WorkloadSpec &spec : spp::workloadRegistry())
            for (const Column &c : cols) {
                const std::string cfg = spec.name + "/" + c.first;
                s.jobs.push_back(
                    {spec.name, c.second, std::string(name) + "/" + cfg});
                s.configs.push_back(cfg);
            }
        return s;
    };
    const std::vector<Column> three = {
        {"directory", dir}, {"broadcast", bc}, {"predicted-sp", sp}};
    return {
        matrix("fig07", {{"predicted-sp", sp}, {"directory-traced", traced}}),
        matrix("fig08", three),
        matrix("fig09", three),
        matrix("fig10", three),
        matrix("fig11", three),
        matrix("multicast", {{"directory", dir},
                             {"broadcast", bc},
                             {"multicast-sp", mc},
                             {"predicted-sp", sp}}),
    };
}

/** A pass's distinct cells: one result per "program/config". */
struct DistinctCell
{
    const spp::ExperimentResult *res;
    const spp::SweepJob *job;
};
using Distinct = std::map<std::string, DistinctCell>;

/**
 * Check one pass's results: store traffic, and every result's digest
 * against the first pass and the committed digests.
 */
void
checkPass(const std::vector<Sweep> &sweeps,
          const std::vector<std::vector<spp::ExperimentResult>> &results,
          DigestBook &book, Tally &tally, Distinct &distinct)
{
    const spp::ResultStoreStats &s = spp::resultStoreStats();
    ++tally.attempted;
    if (s.misses != coldCells || s.hits != warmHits || s.corrupt != 0 ||
        s.bypasses != 0)
        tally.fail("result store traffic " + std::to_string(s.misses) +
                   " misses, " + std::to_string(s.hits) + " hits, " +
                   std::to_string(s.corrupt) + " corrupt, " +
                   std::to_string(s.bypasses) + " bypasses (want 85, " +
                   "221, 0, 0)");
    for (std::size_t f = 0; f < sweeps.size(); ++f)
        for (std::size_t j = 0; j < sweeps[f].jobs.size(); ++j) {
            ++tally.attempted;
            const spp::ExperimentResult &r = results[f][j];
            const std::string err =
                book.check(sweeps[f].jobs[j].label, statsDigest(r.run));
            if (!err.empty())
                tally.fail(sweeps[f].jobs[j].label + ": " + err);
            distinct.emplace(sweeps[f].configs[j],
                             DistinctCell{&r, &sweeps[f].jobs[j]});
        }
}

double
figure7Accuracy(const Distinct &cells)
{
    double sum = 0;
    unsigned n = 0;
    for (const auto &[cfg, c] : cells)
        if (cfg.ends_with("/predicted-sp")) {
            sum += 100.0 * c.res->predictionAccuracy();
            ++n;
        }
    return n ? sum / n : 0.0;
}

std::string
freshDir(const Options &o, const char *what, unsigned pass)
{
    const std::string dir = o.outDir + "/" + what + "-" +
        std::to_string(getpid()) + "-" + std::to_string(pass);
    std::filesystem::remove_all(dir);
    return dir;
}

/** Host seconds to construct the machines of the distinct cells. */
double
setupSeconds(const std::vector<Sweep> &sweeps)
{
    std::map<std::string, spp::Config> machines;
    for (const Sweep &s : sweeps)
        for (std::size_t j = 0; j < s.jobs.size(); ++j)
            machines.emplace(s.configs[j], s.jobs[j].config.config);
    double seconds = 0;
    for (const auto &[name, cfg] : machines) {
        const Clock::time_point t0 = Clock::now();
        auto sys = std::make_unique<spp::CmpSystem>(cfg);
        seconds += since(t0);
    }
    return seconds;
}

/** One traced pass of the analysis and service layers. */
void
tracePass(const Options &o, double scale, unsigned pass,
          unsigned workers, SpanLog &log, DigestBook &book,
          LayerTotals &t, Tally &tally)
{
    const std::string store = freshDir(o, "store", pass);
    const std::vector<Sweep> sweeps = figureSweeps(o, scale, store);
    spp::resultStoreStats().reset();
    const int pass_span = log.open("figures.pass", SpanLog::noParent, 0);
    double busy_s = 0, wall_s = 0, straggler = 0;
    std::vector<std::vector<spp::ExperimentResult>> results;
    for (const Sweep &s : sweeps) {
        const int sweep_span = log.open(s.name, pass_span, 0);
        const spp::SweepRunner runner(workers);
        std::vector<double> cell_s(s.jobs.size(), 0.0);
        std::vector<std::size_t> index(s.jobs.size());
        for (std::size_t i = 0; i < index.size(); ++i)
            index[i] = i;
        results.push_back(runner.map(index, [&](std::size_t i) {
            const auto tid = static_cast<unsigned>(
                std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                1000);
            const int id = log.open("analysis.cell", sweep_span,
                                    static_cast<unsigned>(i), tid);
            spp::ExperimentResult r =
                spp::runExperiment(s.jobs[i].workload, s.jobs[i].config);
            log.close(id);
            cell_s[i] = log.seconds(id);
            return r;
        }));
        log.close(sweep_span);
        const double sweep_wall = log.seconds(sweep_span);
        wall_s += sweep_wall * workers;
        for (const double c : cell_s)
            busy_s += c;
        straggler += 100.0 *
            *std::max_element(cell_s.begin(), cell_s.end()) / sweep_wall;
    }
    log.close(pass_span);
    t.sweepBusyPct = wall_s > 0 ? 100.0 * busy_s / wall_s : 0.0;
    t.sweepStragglerPct = straggler / static_cast<double>(sweeps.size());
    const spp::ResultStoreStats &st = spp::resultStoreStats();
    const double lookups = static_cast<double>(st.hits + st.misses);
    t.storeHitPct =
        lookups > 0 ? 100.0 * static_cast<double>(st.hits) / lookups : 0.0;
    Distinct distinct;
    checkPass(sweeps, results, book, tally, distinct);
    std::filesystem::remove_all(store);

    // Store put and hit of the pass's distinct results.
    const std::string rt = freshDir(o, "roundtrip", pass);
    for (const auto &[cfg, c] : distinct) {
        const spp::SweepJob &job = *c.job;
        const spp::ContentKey key = spp::resultKey(
            job.workload, job.config.config, scale,
            job.config.collectTrace, job.config.recordMissTargets,
            spp::gitDescribe());
        const std::string path =
            spp::resultPath(rt, job.workload, key.hash());
        int b = log.open("store.put", pass_span, 0);
        spp::storeResult(path, key.describe(), *c.res);
        log.close(b);
        t.storePutS += log.seconds(b);
        spp::ExperimentResult back;
        b = log.open("store.hit", pass_span, 0);
        const bool hit = spp::loadCachedResult(path, key.describe(), back);
        log.close(b);
        t.storeHitS += log.seconds(b);
        ++t.storeOps;
        ++tally.attempted;
        if (!hit || statsDigest(back.run) != statsDigest(c.res->run))
            tally.fail(cfg + ": result store round trip differs");
    }
    std::filesystem::remove_all(rt);

    // Miss-target tracing cost: each Fig. 7 directory cell with and
    // without CommTrace, alternating which runs first.
    double plain_s = 0, traced_s = 0;
    unsigned k = 0;
    for (const spp::WorkloadSpec &spec : spp::workloadRegistry()) {
        spp::ExperimentConfig c;
        c.config.seed = o.seed;
        c.scale = scale;
        spp::ExperimentConfig ct = c;
        ct.collectTrace = true;
        ct.recordMissTargets = true;
        for (int side = 0; side < 2; ++side) {
            const bool with = (side == 0) == (k % 2 == 0);
            const int b = log.open(with ? "commtrace.traced"
                                        : "commtrace.plain",
                                   pass_span, k);
            spp::runExperiment(spec.name, with ? ct : c);
            log.close(b);
            (with ? traced_s : plain_s) += log.seconds(b);
        }
        ++k;
    }
    t.commtraceOverheadPct =
        plain_s > 0 ? 100.0 * (traced_s - plain_s) / plain_s : 0.0;

    // The simulator layers, from the Fig. 7 SP cells.
    unsigned id = 0;
    for (const spp::WorkloadSpec &spec : spp::workloadRegistry()) {
        Cell cell;
        cell.program = spec.name;
        cell.cfg.protocol = spp::Protocol::predicted;
        cell.cfg.predictor = spp::PredictorKind::sp;
        cell.cfg.seed = o.seed;
        cell.label = "fig07/" + spec.name + "/predicted-sp";
        traceCell(cell, scale, id++, "", log, pass_span, t, tally, &book,
                  pass == 0);
    }
}

} // namespace

void
runFigures(const Options &o, Report &rep, Tally &tally)
{
    const double scale = o.scale > 0 ? o.scale : defaultScale(o.workload);
    const unsigned workers = spp::SweepRunner::defaultJobs();
    DigestBook book(o, scale);
    std::printf("figures: 6 sweeps, 306 cells per pass (85 simulated, "
                "221 store hits), %u workers, scale %g\n",
                workers, scale);
    Clock::time_point start = Clock::now();

    if (o.trace) {
        SpanLog log;
        std::vector<LayerTotals> passes;
        for (unsigned pass = 0; pass == 0 || since(start) < o.seconds;
             ++pass) {
            passes.emplace_back();
            tracePass(o, scale, pass, workers, log, book, passes.back(),
                      tally);
        }
        book.finish();
        reportLayers(passes, rep);
        finishSpans(log, o);
        return;
    }

    std::vector<double> wall, cpu, setup, maccess;
    double accuracy = 0;
    double ticks = 0, lat_sum = 0, lat_n = 0;
    std::uint64_t misses = 0, bytes = 0;
    for (unsigned pass = 0;
         pass <= minPasses || since(start) < o.seconds; ++pass) {
        const std::string store = freshDir(o, "store", pass);
        const std::vector<Sweep> sweeps = figureSweeps(o, scale, store);
        const double setup_s = setupSeconds(sweeps);
        spp::resultStoreStats().reset();
        const double c0 = cpuSeconds();
        const Clock::time_point t0 = Clock::now();
        std::vector<std::vector<spp::ExperimentResult>> results;
        const spp::SweepRunner runner(workers);
        for (const Sweep &s : sweeps)
            results.push_back(runner.run(s.jobs));
        const double wall_s = since(t0);
        const double cpu_s = cpuSeconds() - c0;
        const std::uint64_t failed_before = tally.failed;
        Distinct distinct;
        checkPass(sweeps, results, book, tally, distinct);
        std::filesystem::remove_all(store);
        std::uint64_t accesses = 0;
        for (const auto &[cfg, c] : distinct)
            accesses += c.res->run.mem.accesses.value();
        if (pass == 0) {
            // Untimed warm-up; its results give the exact metrics.
            accuracy = figure7Accuracy(distinct);
            for (const auto &[cfg, c] : distinct) {
                const spp::RunResult &r = c.res->run;
                ticks += static_cast<double>(r.ticks);
                misses += r.mem.misses.value();
                bytes += r.noc.flitBytes.value();
                lat_sum += r.mem.missLatency.sum();
                lat_n += static_cast<double>(r.mem.missLatency.count());
            }
            start = Clock::now();
            continue;
        }
        if (tally.failed != failed_before)
            continue;
        wall.push_back(wall_s);
        cpu.push_back(cpu_s);
        setup.push_back(setup_s);
        maccess.push_back(static_cast<double>(accesses) / wall_s / 1e6);
    }
    book.finish();

    std::printf("%zu measured passes after one warm-up, %.1f s\n",
                wall.size(), since(start));
    rep.addSamples("maccess_per_s", "Maccess/s", maccess,
                   "accesses of the 85 simulated cells / pass wall s");
    rep.addSamples("wall_s", "s", wall, "six sweeps incl. store I/O");
    rep.addSamples("cpu_s", "s", cpu, "process CPU per pass");
    rep.add("peak_rss_mb", "MiB", peakRssMiB(), "ru_maxrss");
    rep.addSamples("setup_s", "s", setup,
                   "constructors of the 85 simulated cells' machines");
    rep.add("sim_mcycles", "Mcycles", ticks / 1e6, "exact, 85 cells");
    rep.add("miss_latency_cyc", "cycles",
            lat_n > 0 ? lat_sum / lat_n : 0.0, "exact, miss-weighted");
    rep.add("noc_bytes_per_miss", "B/miss",
            misses ? static_cast<double>(bytes) /
                    static_cast<double>(misses)
                   : 0.0,
            "exact");
    std::printf("pred_accuracy_pct: %.2f %% (Fig. 7 total; the paper "
                "reports 77%%; the model is otherwise unvalidated "
                "against hardware)\n",
                accuracy);
}

} // namespace simbench
