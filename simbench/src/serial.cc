/**
 * @file
 * Untraced serial workloads (paper16, snoop16, wide256): one cell at
 * a time on one thread, an untimed warm-up pass, then passes in a
 * seeded shuffled order until the time budget is spent, then one
 * untimed pass with the invariant checks. Each metric is taken per
 * timed pass and reported as the median over passes.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>

#include "simbench.hh"

namespace simbench {

namespace {

struct PassTotals
{
    double setup = 0;
    double run = 0;
    double cpu = 0;
    std::uint64_t accesses = 0;
    bool complete = true;
};

} // namespace

void
runSerial(const Options &o, Report &rep, Tally &tally)
{
    const double scale = o.scale > 0 ? o.scale : defaultScale(o.workload);
    const std::vector<Cell> cells = serialCells(o);
    DigestBook book(o, scale);
    std::vector<spp::RunResult> first(cells.size());
    std::vector<bool> have_first(cells.size(), false);

    double check_s = 0;
    auto run_cell = [&](std::size_t i, PassTotals &pt, bool check) {
        const Cell &cell = cells[i];
        const spp::CmpSystem::ThreadFn fn =
            liveThreadFn(cell.program, scale);
        ++tally.attempted;
        spp::RunResult r;
        spp::RunStatus status;
        double setup = 0, run = 0, cpu = 0;
        {
            const double c0 = cpuSeconds();
            const Clock::time_point t0 = Clock::now();
            auto sys = std::make_unique<spp::CmpSystem>(cell.cfg);
            const Clock::time_point t1 = Clock::now();
            status = sys->tryRun(fn, r);
            const Clock::time_point t2 = Clock::now();
            cpu = cpuSeconds() - c0;
            setup = std::chrono::duration<double>(t1 - t0).count();
            run = std::chrono::duration<double>(t2 - t1).count();
            // Invariant checks stay outside the timed spans and run on
            // the final, checked rep of each cell: at 256 cores they
            // cost twice the run. The other reps must repeat its
            // digest. A violation panics: it is a simulator bug.
            if (check && status == spp::RunStatus::ok) {
                const Clock::time_point c = Clock::now();
                sys->memSys().checkCoherence();
                if (spp::DirectoryMemSys *dir = sys->directory())
                    dir->checkDirectory();
                check_s += since(c);
            }
        }
        if (status != spp::RunStatus::ok) {
            tally.fail(cell.label + ": " + spp::toString(status));
            pt.complete = false;
            return;
        }
        const std::string err = book.check(cell.label, statsDigest(r));
        if (!err.empty()) {
            tally.fail(cell.label + ": " + err);
            pt.complete = false;
        }
        if (!have_first[i]) {
            first[i] = r;
            have_first[i] = true;
        }
        pt.setup += setup;
        pt.run += run;
        pt.cpu += cpu;
        pt.accesses += r.mem.accesses.value();
    };

    std::vector<std::size_t> order(cells.size());
    std::iota(order.begin(), order.end(), 0);
    {
        PassTotals warm;
        for (const std::size_t i : order)
            run_cell(i, warm, false);
    }
    const Clock::time_point start = Clock::now();
    std::vector<double> maccess, wall, cpu, setup;
    for (unsigned pass = 0;
         pass < minPasses || since(start) < o.seconds; ++pass) {
        std::mt19937_64 rng(o.seed * 1000003u + pass);
        std::shuffle(order.begin(), order.end(), rng);
        PassTotals pt;
        for (const std::size_t i : order)
            run_cell(i, pt, false);
        if (!pt.complete || pt.run <= 0)
            continue;
        maccess.push_back(static_cast<double>(pt.accesses) / pt.run /
                          1e6);
        wall.push_back(pt.setup + pt.run);
        cpu.push_back(pt.cpu);
        setup.push_back(pt.setup);
    }
    const double measured_s = since(start);
    // Read before the checks: their scratch maps are not the
    // simulator's memory.
    const double peak_rss = peakRssMiB();
    {
        PassTotals checked;
        std::sort(order.begin(), order.end());
        for (const std::size_t i : order)
            run_cell(i, checked, true);
    }
    book.finish();

    std::uint64_t misses = 0, bytes = 0;
    double ticks = 0, lat_sum = 0, lat_n = 0;
    double acc_sum = 0;
    unsigned acc_n = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!have_first[i])
            continue;
        const spp::RunResult &r = first[i];
        ticks += static_cast<double>(r.ticks);
        misses += r.mem.misses.value();
        bytes += r.noc.flitBytes.value();
        lat_sum += r.mem.missLatency.sum();
        lat_n += static_cast<double>(r.mem.missLatency.count());
        if (cells[i].cfg.predictor == spp::PredictorKind::sp) {
            const auto comm = r.mem.communicatingMisses.value();
            acc_sum += comm ? 100.0 *
                    static_cast<double>(
                        r.mem.predictionsSufficient.value()) /
                    static_cast<double>(comm)
                            : 0.0;
            ++acc_n;
        }
    }

    std::printf("cells: %zu per pass, scale %g, %zu measured passes, "
                "%.1f s, then a checked pass (%.1f s in invariant "
                "checks)\n",
                cells.size(), scale, wall.size(), measured_s, check_s);
    rep.addSamples("maccess_per_s", "Maccess/s", maccess,
                   "simulated accesses / host s inside CmpSystem::run");
    rep.addSamples("wall_s", "s", wall, "constructors + runs per pass");
    rep.addSamples("cpu_s", "s", cpu, "process CPU per pass");
    rep.add("peak_rss_mb", "MiB", peak_rss,
            "ru_maxrss before the invariant checks");
    rep.addSamples("setup_s", "s", setup,
                   "CmpSystem constructors per pass");
    rep.add("sim_mcycles", "Mcycles", ticks / 1e6, "exact");
    rep.add("miss_latency_cyc", "cycles",
            lat_n > 0 ? lat_sum / lat_n : 0.0, "exact, miss-weighted");
    rep.add("noc_bytes_per_miss", "B/miss",
            misses ? static_cast<double>(bytes) /
                    static_cast<double>(misses)
                   : 0.0,
            "exact");
    if (acc_n > 0)
        std::printf("pred_accuracy_pct: %.2f %% (mean over %u programs; "
                    "the paper reports 77%%; the model is otherwise "
                    "unvalidated against hardware)\n",
                    acc_sum / acc_n, acc_n);
}

} // namespace simbench
