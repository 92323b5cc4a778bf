#include "trace/replay.hh"

#include "common/logging.hh"

namespace spp {

namespace {

/** One thread's program: await its recorded ops in order. */
Task
replayOps(ThreadContext &ctx, std::shared_ptr<const TraceData> trace)
{
    for (const TraceOp &op : trace->threads[ctx.self()])
        co_await ctx.replay(op);
}

} // namespace

CmpSystem::ThreadFn
replayThreadFn(std::shared_ptr<const TraceData> trace)
{
    return [trace](ThreadContext &ctx) {
        SPP_ASSERT(ctx.self() < trace->threads.size(),
                   "replay trace has {} thread streams, core {} has "
                   "none",
                   trace->threads.size(), ctx.self());
        return replayOps(ctx, trace);
    };
}

} // namespace spp
