/**
 * @file
 * Per-thread simulation context: the API workload programs run
 * against.
 *
 * A ThreadContext pins one logical thread to one core (the paper's
 * first-touch binding) and exposes awaitable operations: memory
 * accesses, compute delays, and synchronization primitives. Sync
 * primitives model their own coherence traffic (barrier arrival
 * writes, lock-word read-modify-writes, condition flag reads), so
 * synchronization costs flow through the same cache/NoC path as data.
 *
 * Every awaitable holds its op as a TraceOp. Awaiting it hands the op
 * to the context, which runs that op kind's steps (memory accesses, a
 * compute delay, sync-runtime calls) and resumes the thread after the
 * last one. The core blocks on every op, so the op in flight, its
 * step and the suspended thread live here: the memory system reports
 * completions by core and the sync runtime wakes the context, and
 * neither carries the thread's continuation. Live and replayed
 * threads run the same steps.
 */

#ifndef SPP_SIM_THREAD_CONTEXT_HH
#define SPP_SIM_THREAD_CONTEXT_HH

#include <coroutine>

#include "coherence/mem_sys.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "sync/sync_manager.hh"
#include "trace/format.hh"

namespace spp {

class CmpSystem;

/** Shared-memory layout constants used by workloads. */
namespace layout {
/** Base of the synchronization-variable region. */
inline constexpr Addr syncBase = 0x0000'0000;
/** Base of the shared data region. */
inline constexpr Addr sharedBase = 0x1000'0000;
/** Base of core 0's private region; one privateStride per core. */
inline constexpr Addr privateBase = 0x8000'0000;
inline constexpr Addr privateStride = 0x0100'0000;
/** Synthetic PCs for sync-primitive memory operations. */
inline constexpr Pc syncPcBase = 0xff00'0000;
} // namespace layout

/**
 * The per-thread execution context.
 */
class ThreadContext
{
  public:
    ThreadContext(CmpSystem &sys, CoreId core, unsigned n_threads,
                  std::uint64_t seed);
    ThreadContext(const ThreadContext &) = delete;
    ThreadContext &operator=(const ThreadContext &) = delete;

    CoreId self() const { return core_; }
    unsigned numThreads() const { return n_threads_; }
    Rng &rng() { return rng_; }

    /** Address of shared line #@p index. */
    Addr shared(std::uint64_t index) const;
    /** Address of this thread's private line #@p index. */
    Addr priv(std::uint64_t index) const;
    /** Address of thread @p t's private line #@p index (sharing). */
    Addr privOf(CoreId t, std::uint64_t index) const;

    /** Awaitable of one op; yields its last memory access's outcome. */
    struct Op
    {
        ThreadContext *tc;
        TraceOp op;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> thread)
        {
            tc->start(op, thread);
        }

        AccessOutcome await_resume() const { return tc->last_outcome_; }
    };

    /** Load from @p addr attributed to static instruction @p pc. */
    Op
    read(Addr addr, Pc pc)
    {
        return recorded({TraceOpKind::read, addr, pc, 0});
    }

    /** Store to @p addr attributed to static instruction @p pc. */
    Op
    write(Addr addr, Pc pc)
    {
        return recorded({TraceOpKind::write, addr, pc, 0});
    }

    /** Execute @p instructions of local compute (2-issue core). */
    Op
    compute(std::uint64_t instructions)
    {
        return recorded({TraceOpKind::compute, 0, 0, instructions});
    }

    /** Global barrier across all threads; @p sid is the call site. */
    Op
    barrier(unsigned id, Pc sid)
    {
        return recorded({TraceOpKind::barrier, 0, sid, id});
    }

    /** Acquire lock @p id (critical section begins). */
    Op lock(unsigned id) { return recorded({TraceOpKind::lock, 0, 0, id}); }

    /** Release lock @p id (critical section ends). */
    Op
    unlock(unsigned id)
    {
        return recorded({TraceOpKind::unlock, 0, 0, id});
    }

    /** Wait on condition @p id until signalled. */
    Op
    condWait(unsigned id, Pc sid)
    {
        return recorded({TraceOpKind::condWait, 0, sid, id});
    }

    /** Signal one waiter of condition @p id. */
    Op
    condSignal(unsigned id, Pc sid)
    {
        return recorded({TraceOpKind::condSignal, 0, sid, id});
    }

    /** Wake all waiters of condition @p id. */
    Op
    condBroadcast(unsigned id, Pc sid)
    {
        return recorded({TraceOpKind::condBroadcast, 0, sid, id});
    }

    /** Semaphore post: wake a waiter or bank a token. */
    Op
    semPost(unsigned id, Pc sid)
    {
        return recorded({TraceOpKind::semPost, 0, sid, id});
    }

    /** Semaphore wait: proceed immediately if a token is banked. */
    Op
    semWait(unsigned id, Pc sid)
    {
        return recorded({TraceOpKind::semWait, 0, sid, id});
    }

    /** Wait for all other threads to finish. */
    Op join(Pc sid) { return recorded({TraceOpKind::join, 0, sid, 0}); }

    /**
     * Awaitable of a recorded op: the trace-replay entry point. It
     * runs exactly the steps of the factory op, but is not reported
     * to the trace sink (a replay is not re-recorded).
     */
    Op replay(const TraceOp &op) { return {this, op}; }

    /** This core's memory access finished (CmpSystem forwards it). */
    void accessDone(const AccessOutcome &out);

  private:
    /**
     * Report @p op to the trace sink, if any, and wrap it. Ops are
     * recorded at factory-call time, i.e. in per-thread program
     * order before any of the op's memory traffic, which is exactly
     * the order a replay must re-issue them in.
     */
    Op recorded(const TraceOp &op);

    /** Begin @p op on behalf of the suspended @p thread. */
    void start(const TraceOp &op, std::coroutine_handle<> thread);

    /** Run the op's next step; after its last, resume the thread. */
    void advance();

    /** A step that is one memory access. */
    void mem(Addr addr, bool is_write, Pc pc);

    /** Event that runs the op's next step (delays, sync wakeups). */
    EventQueue::Action
    next()
    {
        return [this]() { advance(); };
    }

    CmpSystem &sys_;
    CoreId core_;
    unsigned n_threads_;
    Rng rng_;
    TraceOp op_;                      ///< The op in flight.
    unsigned step_ = 0;               ///< Its next step.
    std::coroutine_handle<> thread_;  ///< Suspended until it is done.
    Addr access_addr_ = 0;            ///< The access in flight, for
    Pc access_pc_ = 0;                ///< the access observer.
    AccessOutcome last_outcome_;
};

} // namespace spp

#endif // SPP_SIM_THREAD_CONTEXT_HH
