#include "trace/replay.hh"

#include <sstream>

#include "common/logging.hh"
#include "workload/workload.hh"

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

TraceData
recordTrace(const std::string &workload, const Config &cfg,
            double scale)
{
    const WorkloadSpec *spec = findWorkload(workload);
    if (!spec)
        SPP_FATAL("unknown workload '{}'", workload);

    TraceRecorder recorder(cfg.numCores);
    CmpSystem sys(cfg);
    sys.setTraceSink(&recorder);
    WorkloadParams params;
    params.scale = scale;
    sys.run([spec, params](ThreadContext &ctx) {
        return spec->run(ctx, params);
    });

    TraceMeta &m = recorder.data.meta;
    m.workload = workload;
    m.seed = cfg.seed;
    m.lineBytes = cfg.lineBytes;
    m.scale = scale;
    return std::move(recorder.data);
}

std::string
traceReplayError(const TraceData &trace, const Config &cfg)
{
    if (trace.meta.numThreads != cfg.numCores) {
        std::ostringstream os;
        os << "trace holds " << trace.meta.numThreads
           << " thread streams but the machine has " << cfg.numCores
           << " cores; re-record with --cores "
           << trace.meta.numThreads << " or match the geometry";
        return os.str();
    }
    if (trace.threads.size() != trace.meta.numThreads)
        return "trace stream count disagrees with its header";
    return "";
}

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
