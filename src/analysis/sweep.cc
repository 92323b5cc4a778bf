#include "analysis/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/config.hh"
#include "common/logging.hh"
#include "telemetry/json.hh"
#include "telemetry/manifest.hh"

namespace spp {

namespace {

/** Progress lines go to stderr when SPP_PROGRESS is set (any value
 * but "0"), or whenever logging is not quiet. The bench harnesses
 * run quiet, so their stdout tables stay byte-identical across
 * thread counts; export SPP_PROGRESS=1 to watch a long sweep. */
bool
progressEnabled()
{
    if (const char *env = std::getenv("SPP_PROGRESS"))
        return env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
    return !isQuiet();
}

std::string
jobLabel(const SweepJob &job)
{
    if (!job.label.empty())
        return job.label;
    std::string label = job.workload;
    label += '/';
    label += toString(job.config.config.protocol);
    if (job.config.config.predictor != PredictorKind::none) {
        label += '/';
        label += toString(job.config.config.predictor);
    }
    return label;
}

/** Aggregate sidecar of one sweep: per-job wall time next to the
 * per-job run manifests. A process may run several sweeps into the
 * same directory, so each gets a distinct sequence number. */
void
writeSweepManifest(const std::string &dir,
                   const std::vector<SweepJob> &jobs,
                   const std::vector<double> &wall_ms,
                   unsigned n_workers, double total_ms)
{
    static std::atomic<unsigned> sweep_seq{0};
    const unsigned seq =
        sweep_seq.fetch_add(1, std::memory_order_relaxed) + 1;

    RunManifest manifest;
    manifest.set("kind", Json("sweep"));
    manifest.set("threads", Json(n_workers));
    manifest.set("wall_ms", Json(total_ms));
    Json job_list = Json::array();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        Json row = Json::object();
        row["label"] = Json(jobLabel(jobs[i]));
        row["workload"] = Json(jobs[i].workload);
        row["wall_ms"] = Json(wall_ms[i]);
        job_list.push(std::move(row));
    }
    manifest.set("jobs", std::move(job_list));

    std::string path = dir;
    path += "/sweep";
    if (seq > 1) {
        path += '.';
        path += std::to_string(seq);
    }
    path += ".manifest.json";
    manifest.write(path);
}

} // namespace

SweepRunner::SweepRunner(unsigned n_threads)
    : n_threads_(n_threads != 0 ? n_threads : defaultJobs())
{}

unsigned
SweepRunner::defaultJobs()
{
    if (const char *env = std::getenv("SPP_JOBS")) {
        // The same range as the drivers' --jobs.
        std::uint64_t n = 0;
        const std::string err = parseUnsigned("SPP_JOBS", env, 1, 65536, n);
        if (!err.empty())
            SPP_FATAL("{}", err);
        return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<SweepJob> &jobs) const
{
    using Clock = std::chrono::steady_clock;

    std::vector<ExperimentResult> results(jobs.size());
    if (jobs.empty())
        return results;

    const bool progress = progressEnabled();
    const Clock::time_point sweep_start = Clock::now();
    std::atomic<std::size_t> done{0};
    std::mutex io_mutex;
    std::vector<double> wall_ms(jobs.size(), 0.0);

    forIndices(jobs.size(), [&](std::size_t i) {
        const Clock::time_point t0 = Clock::now();
        if ((jobs[i].config.telemetry.enabled() ||
             jobs[i].config.attribution.enabled()) &&
            jobs[i].config.telemetryLabel.empty()) {
            // Give every job a unique file stem; two cells of a
            // matrix often share the workload name.
            ExperimentConfig cfg = jobs[i].config;
            cfg.telemetryLabel =
                sanitizeFileLabel(jobLabel(jobs[i])) + "_j" +
                std::to_string(i);
            results[i] = runExperiment(jobs[i].workload, cfg);
        } else {
            results[i] = runExperiment(jobs[i].workload,
                                       jobs[i].config);
        }
        wall_ms[i] =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count();
        const std::size_t finished =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (progress) {
            const double elapsed_ms =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - sweep_start)
                    .count();
            // Simulated-event throughput of the finished job, and a
            // completion-rate ETA for the rest of the sweep.
            const double mev_s = wall_ms[i] > 0.0
                ? static_cast<double>(
                      results[i].run.eventsExecuted) /
                    (wall_ms[i] * 1e3)
                : 0.0;
            const double eta_ms = elapsed_ms /
                static_cast<double>(finished) *
                static_cast<double>(jobs.size() - finished);
            std::lock_guard<std::mutex> lock(io_mutex);
            // lint: allow(std-io) — opt-in progress meter on stderr.
            std::fprintf(stderr,
                         "sweep [%zu/%zu] %s %.0fms %.2f Mev/s "
                         "(elapsed %.0fms, eta %.0fms)\n",
                         finished, jobs.size(),
                         jobLabel(jobs[i]).c_str(), wall_ms[i],
                         mev_s, elapsed_ms, eta_ms);
        }
    });

    const unsigned n_workers = static_cast<unsigned>(
        std::min<std::size_t>(n_threads_, jobs.size()));

    const double total_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  sweep_start)
            .count();
    if (progress && jobs.size() > 1) {
        // lint: allow(std-io) — opt-in progress meter on stderr.
        std::fprintf(stderr, "sweep done: %zu jobs on %u thread%s "
                             "in %.0fms\n",
                     jobs.size(), n_workers,
                     n_workers == 1 ? "" : "s", total_ms);
    }

    // When the sweep's jobs write telemetry, leave one aggregate
    // manifest beside the per-job sidecars.
    for (const SweepJob &job : jobs) {
        if (job.config.telemetry.enabled()) {
            writeSweepManifest(job.config.telemetry.dir, jobs,
                               wall_ms, n_workers, total_ms);
            break;
        }
    }
    return results;
}

void
SweepRunner::forIndices(
    // lint: allow(std-function) — pool dispatch, once per sweep cell.
    std::size_t n, const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;

    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            fn(i);
        }
    };

    const unsigned n_workers =
        static_cast<unsigned>(std::min<std::size_t>(n_threads_, n));
    if (n_workers <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (unsigned t = 0; t < n_workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

std::vector<ExperimentResult>
runSweep(const std::vector<SweepJob> &jobs, unsigned n_threads)
{
    return SweepRunner(n_threads).run(jobs);
}

} // namespace spp
