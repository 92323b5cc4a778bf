/**
 * @file
 * Parallel experiment sweep engine.
 *
 * Every figure/table harness runs a (workload, config) matrix whose
 * cells are fully independent: each runExperiment() call builds its
 * own CmpSystem, seeds its own RNGs and touches no shared mutable
 * state. SweepRunner exploits that by executing a job vector on a
 * pool of worker threads while returning results in *job order*, so
 * callers see exactly the sequence a sequential loop would produce.
 *
 * Determinism guarantee: a given (workload, config, seed) job yields
 * a bit-identical ExperimentResult whether the sweep runs on one
 * thread or many; only wall-clock time and the interleaving of
 * progress lines change. Jobs that share a prepare callback may
 * invoke it concurrently, so those callbacks must be re-entrant
 * (capture by value, mutate only their arguments).
 */

#ifndef SPP_ANALYSIS_SWEEP_HH
#define SPP_ANALYSIS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/experiment.hh"

namespace spp {

/** One cell of a sweep matrix. */
struct SweepJob
{
    std::string workload;
    ExperimentConfig config;
    /** Optional tag shown in progress lines; defaults to
     * "workload/protocol[/predictor]". */
    std::string label;
};

/**
 * Thread-pool executor for experiment sweeps. Worker count comes
 * from the constructor argument, else the SPP_JOBS environment
 * variable, else std::thread::hardware_concurrency().
 */
class SweepRunner
{
  public:
    /** @p n_threads 0 = defaultJobs(). */
    explicit SweepRunner(unsigned n_threads = 0);

    /** Run all jobs; results land at the index of their job. */
    std::vector<ExperimentResult>
    run(const std::vector<SweepJob> &jobs) const;

    /**
     * Apply @p fn to each element of @p items on the worker pool;
     * results land at the index of their item, exactly as a
     * sequential loop would produce them. @p fn may run from several
     * threads at once, so it must be re-entrant and touch only its
     * own item (the fuzz harness: each item is one seeded case).
     */
    template <typename Item, typename Fn>
    auto
    map(const std::vector<Item> &items, Fn &&fn) const
        -> std::vector<std::invoke_result_t<Fn &, const Item &>>
    {
        std::vector<std::invoke_result_t<Fn &, const Item &>> out(
            items.size());
        forIndices(items.size(),
                   [&](std::size_t i) { out[i] = fn(items[i]); });
        return out;
    }

    unsigned threads() const { return n_threads_; }

    /** SPP_JOBS override (fatal unless an integer in [1, 65536]),
     * else hardware_concurrency(), min 1. */
    static unsigned defaultJobs();

  private:
    /** Run fn(0), ..., fn(n-1) on the pool, each index once. */
    void forIndices(std::size_t n,
                    // lint: allow(std-function) — pool dispatch.
                    const std::function<void(std::size_t)> &fn) const;

    unsigned n_threads_;
};

/** One-shot convenience wrapper around SweepRunner. */
std::vector<ExperimentResult>
runSweep(const std::vector<SweepJob> &jobs, unsigned n_threads = 0);

} // namespace spp

#endif // SPP_ANALYSIS_SWEEP_HH
