#include "sim/thread_context.hh"

#include <utility>

#include "sim/cmp_system.hh"

namespace spp {

ThreadContext::ThreadContext(CmpSystem &sys, CoreId core,
                             unsigned n_threads, std::uint64_t seed)
    : sys_(sys), core_(core), n_threads_(n_threads), rng_(seed)
{
}

Addr
ThreadContext::shared(std::uint64_t index) const
{
    return layout::sharedBase +
        index * sys_.config().lineBytes;
}

Addr
ThreadContext::priv(std::uint64_t index) const
{
    return privOf(core_, index);
}

Addr
ThreadContext::privOf(CoreId t, std::uint64_t index) const
{
    return layout::privateBase +
        static_cast<Addr>(t) * layout::privateStride +
        index * sys_.config().lineBytes;
}

ThreadContext::Op
ThreadContext::recorded(const TraceOp &op)
{
    if (TraceSink *sink = sys_.traceSink())
        sink->record(core_, op);
    return {this, op};
}

void
ThreadContext::start(const TraceOp &op, std::coroutine_handle<> thread)
{
    op_ = op;
    step_ = 0;
    thread_ = thread;
    advance();
}

void
ThreadContext::mem(Addr addr, bool is_write, Pc pc)
{
    access_addr_ = addr;
    access_pc_ = pc;
    sys_.memSys().access(core_, addr, is_write, pc);
}

void
ThreadContext::accessDone(const AccessOutcome &out)
{
    last_outcome_ = out;
    if (sys_.accessObserver())
        sys_.accessObserver()(core_, access_addr_, access_pc_, out);
    advance();
}

void
ThreadContext::advance()
{
    SyncManager &sync = sys_.syncManager();
    const auto id = static_cast<unsigned>(op_.arg);
    const Pc pc = layout::syncPcBase + id;
    const Pc sid = op_.pc;
    const unsigned step = step_++;
    switch (op_.kind) {
      case TraceOpKind::read:
      case TraceOpKind::write:
        if (step == 0)
            return mem(op_.addr, op_.kind == TraceOpKind::write,
                       op_.pc);
        break;
      case TraceOpKind::compute:
        if (step == 0) {
            // 2-issue in-order core: IPC of 2 on compute bursts.
            const Tick delay = (op_.arg + 1) / 2;
            return sys_.eventQueue().scheduleAfter(
                delay > 0 ? delay : 1, next());
        }
        break;
      case TraceOpKind::barrier:
        // Arrival: write the barrier counter line (contended), then
        // block; on release read the generation flag written by the
        // last arriver, then continue into the new epoch.
        if (step == 0)
            return mem(sync.barrierAddr(id), true, pc);
        if (step == 1)
            return sync.barrierArrive(core_, id, n_threads_, sid,
                                      next());
        if (step == 2)
            return mem(sync.barrierGenAddr(id), false, pc + 0x1000);
        break;
      case TraceOpKind::lock:
        // Once granted, the lock-word read-modify-write communicates
        // with the previous holder (migratory pattern).
        if (step == 0)
            return sync.lockAcquire(core_, id, next());
        if (step == 1)
            return mem(sync.lockAddr(id), true, pc + 0x2000);
        break;
      case TraceOpKind::unlock:
        // Release store on the lock word, then hand the lock over.
        if (step == 0)
            return mem(sync.lockAddr(id), true, pc + 0x3000);
        sync.lockRelease(core_, id);
        break;
      case TraceOpKind::condWait:
        // Once woken, read the state the signaller published.
        if (step == 0)
            return sync.condWait(core_, id, sid, next());
        if (step == 1)
            return mem(sync.condAddr(id), false, pc + 0x4000);
        break;
      case TraceOpKind::condSignal:
        if (step == 0)
            return mem(sync.condAddr(id), true, pc + 0x5000);
        sync.condSignal(core_, id, sid);
        break;
      case TraceOpKind::condBroadcast:
        if (step == 0)
            return mem(sync.condAddr(id), true, pc + 0x6000);
        sync.condBroadcast(core_, id, sid);
        break;
      case TraceOpKind::semPost:
        // Publish the produced state, then post the token.
        if (step == 0)
            return mem(sync.condAddr(id), true, pc + 0x7000);
        sync.semPost(core_, id, sid);
        break;
      case TraceOpKind::semWait:
        // Consume: read the state the producer published.
        if (step == 0)
            return sync.semWait(core_, id, sid, next());
        if (step == 1)
            return mem(sync.condAddr(id), false, pc + 0x8000);
        break;
      case TraceOpKind::join:
        if (step == 0)
            return sync.joinAll(core_, sid, next());
        break;
    }
    // The op is done. The resumed thread may start its next op right
    // here, so nothing of this one is touched after the resume.
    std::exchange(thread_, nullptr).resume();
}

} // namespace spp
