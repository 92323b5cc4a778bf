/**
 * @file
 * CmpSystem: the complete simulated machine.
 *
 * Builds the event queue, mesh, coherent memory system (directory,
 * broadcast, or directory+prediction), predictor and synchronization
 * runtime per a Config; spawns one coroutine thread per core; runs
 * the event loop to completion and returns the collected statistics.
 */

#ifndef SPP_SIM_CMP_SYSTEM_HH
#define SPP_SIM_CMP_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "coherence/directory_protocol.hh"
#include "coherence/mem_sys.hh"
#include "common/config.hh"
#include "core/sp_predictor.hh"
#include "event/event_queue.hh"
#include "noc/mesh.hh"
#include "sim/task.hh"
#include "sim/thread_context.hh"
#include "sync/sync_manager.hh"

namespace spp {

class TraceSink;

/** How a tryRun() attempt ended. */
enum class RunStatus
{
    ok,       ///< All threads finished and the system drained.
    timeout,  ///< maxTicks elapsed with events still pending.
    deadlock, ///< Event queue drained with unfinished threads.
};

const char *toString(RunStatus s);

/** Everything measured over one run. */
struct RunResult
{
    Tick ticks = 0;                 ///< Execution time.
    MemSysStats mem;
    NocStats noc;
    SyncStats sync;
    SpStats sp;                     ///< Zero if not SP-predicted.
    std::size_t predictorStorageBits = 0;
    std::uint64_t predictorTableAccesses = 0;
    std::uint64_t indirectionsAvoided = 0;
    std::uint64_t eventsExecuted = 0;
};

/**
 * One simulated CMP. Construct, optionally attach observers, then
 * run() a workload. It is its memory system's AccessCompletion: a
 * finished access resumes the core's ThreadContext.
 */
class CmpSystem final : public AccessCompletion
{
  public:
    /** Factory producing the per-thread program. */
    // lint: allow(std-function) — setup-time binding, not per-event.
    using ThreadFn = std::function<Task(ThreadContext &)>;

    /** Observer of every completed memory access (tracing). */
    using AccessObserver =
        // lint: allow(std-function) — optional tracing hook; unbound in timed runs.
        std::function<void(CoreId, Addr, Pc, const AccessOutcome &)>;

    explicit CmpSystem(const Config &cfg);
    ~CmpSystem() override;

    /** Run @p thread_fn on every core to completion. */
    RunResult run(const ThreadFn &thread_fn);

    /**
     * Like run(), but reports timeouts and deadlocks through the
     * return status instead of terminating the process; used by the
     * fuzz harness, for which a hang is a finding, not a fatal error.
     * @p result is filled with whatever statistics accumulated, even
     * on failure.
     */
    RunStatus tryRun(const ThreadFn &thread_fn, RunResult &result);

    // Component access (observers, tests, analysis).
    EventQueue &eventQueue() { return eq_; }
    Mesh &mesh() { return *mesh_; }
    MemSys &memSys() { return *mem_; }
    SyncManager &syncManager() { return *sync_; }
    const Config &config() const { return cfg_; }
    DestinationPredictor *predictor() { return predictor_.get(); }
    SpPredictor *spPredictor() { return sp_predictor_; }
    DirectoryMemSys *directory();

    void setAccessObserver(AccessObserver obs)
    {
        access_observer_ = std::move(obs);
    }
    const AccessObserver &accessObserver() const
    {
        return access_observer_;
    }

    /**
     * Attach a trace recorder: every semantic op a thread issues
     * (memory access, compute burst, sync primitive) is reported at
     * issue time. Observational only; nullptr (the default) turns
     * recording off, leaving one pointer check per issued op.
     */
    void setTraceSink(TraceSink *sink) { trace_sink_ = sink; }
    TraceSink *traceSink() const { return trace_sink_; }

  private:
    void
    accessDone(CoreId core, const AccessOutcome &out) override
    {
        contexts_[core]->accessDone(out);
    }

    Config cfg_;
    EventQueue eq_;
    std::unique_ptr<Mesh> mesh_;
    std::unique_ptr<DestinationPredictor> predictor_;
    SpPredictor *sp_predictor_ = nullptr; ///< Borrowed from predictor_.
    std::unique_ptr<MemSys> mem_;
    std::unique_ptr<SyncManager> sync_;
    std::vector<std::unique_ptr<ThreadContext>> contexts_;
    std::vector<Task> tasks_;
    unsigned finished_ = 0;
    AccessObserver access_observer_;
    TraceSink *trace_sink_ = nullptr;
};

} // namespace spp

#endif // SPP_SIM_CMP_SYSTEM_HH
