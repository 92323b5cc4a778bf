/**
 * @file
 * Trace record and replay: capture a workload's `.spptrace` op
 * stream from a live run, and drive a CmpSystem from one instead of
 * a live generator coroutine.
 *
 * Replay preserves per-thread program order exactly — each thread
 * awaits its recorded ops one at a time through the ordinary
 * ThreadContext API — and sync ops execute through the live
 * SyncManager, so inter-thread ordering (lock handoff, barrier
 * release, condition wakeup) is re-derived from the replayed
 * machine's timing, exactly as in a live run. Under the recording
 * Config this reproduces the original simulation event-for-event
 * (the determinism contract DESIGN.md §13 documents and the
 * record/replay tests enforce); under any other Config it replays
 * the same sharing pattern against different hardware.
 */

#ifndef SPP_TRACE_REPLAY_HH
#define SPP_TRACE_REPLAY_HH

#include <memory>
#include <string>

#include "sim/cmp_system.hh"
#include "trace/format.hh"

namespace spp {

/**
 * Run @p workload's generator once on a machine configured as
 * @p cfg at iteration scale @p scale and return the op stream it
 * issued, with its provenance (keyHash 0). Fatal on an unknown
 * workload.
 */
TraceData recordTrace(const std::string &workload, const Config &cfg,
                      double scale);

/**
 * Validate that @p trace can drive a machine configured as @p cfg:
 * the thread count must match cfg.numCores exactly. Returns an
 * error message, or "" when compatible. A differing lineBytes is
 * legal (addresses are absolute) but changes sharing granularity;
 * the caller may warn.
 */
std::string traceReplayError(const TraceData &trace,
                             const Config &cfg);

/**
 * Per-thread program that replays @p trace; pass to CmpSystem::run.
 * The trace is shared, not copied, by the per-core closures.
 * Call traceReplayError() first — a thread-count mismatch is fatal
 * inside the returned function.
 */
CmpSystem::ThreadFn
replayThreadFn(std::shared_ptr<const TraceData> trace);

} // namespace spp

#endif // SPP_TRACE_REPLAY_HH
