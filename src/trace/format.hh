/**
 * @file
 * In-memory model of a `.spptrace` workload trace.
 *
 * A trace is the per-thread sequence of *semantic* operations a
 * workload issued against ThreadContext: memory reads/writes (line
 * address + static PC), compute bursts, and synchronization ops
 * (barrier / lock / unlock / condition wait-signal-broadcast /
 * semaphore post-wait / join, each with its primitive id and
 * call-site sid). Sync primitives are recorded at this level — not
 * as their internal lock-word / barrier-counter memory traffic — so
 * a replay regenerates that traffic through the live SyncManager and
 * stays valid under any protocol, predictor, or sharer-format
 * configuration.
 *
 * Derived quantities (macroblock id, home node, region) are pure
 * functions of the line address and the replay Config, so the format
 * stores only the address. This header is a leaf (types only); the
 * binary encoding lives in codec.hh.
 */

#ifndef SPP_TRACE_FORMAT_HH
#define SPP_TRACE_FORMAT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace spp {

/** Operation kinds; values are the on-disk opcodes (append only). */
enum class TraceOpKind : std::uint8_t
{
    read = 0,
    write = 1,
    compute = 2,
    barrier = 3,
    lock = 4,
    unlock = 5,
    condWait = 6,
    condSignal = 7,
    condBroadcast = 8,
    semPost = 9,
    semWait = 10,
    join = 11,
};

inline constexpr unsigned traceOpKinds = 12;

const char *toString(TraceOpKind k);

/** One recorded operation of one thread. */
struct TraceOp
{
    TraceOpKind kind = TraceOpKind::read;
    Addr addr = 0;          ///< read/write: byte address (line base).
    Pc pc = 0;              ///< read/write: PC; sync ops: sid.
    std::uint64_t arg = 0;  ///< compute: instructions; sync ops: id.

    bool
    operator==(const TraceOp &o) const
    {
        return kind == o.kind && addr == o.addr && pc == o.pc &&
            arg == o.arg;
    }
};

/** Provenance of a trace: what produced it and for which geometry. */
struct TraceMeta
{
    std::string workload;       ///< Generator name or import tag.
    std::uint32_t numThreads = 0;
    std::uint64_t seed = 0;     ///< Config::seed of the recorded run.
    std::uint32_t lineBytes = 64;
    double scale = 1.0;         ///< WorkloadParams::scale.
    std::uint64_t keyHash = 0;  ///< 0 = n/a; older recordings carry
                                ///< a store key hash, unused.
};

/** A fully decoded trace: metadata + one op stream per thread. */
struct TraceData
{
    TraceMeta meta;
    std::vector<std::vector<TraceOp>> threads;

    std::uint64_t
    totalOps() const
    {
        std::uint64_t n = 0;
        for (const auto &t : threads)
            n += t.size();
        return n;
    }
};

/**
 * Recording hook: CmpSystem carries an optional TraceSink pointer;
 * when set, ThreadContext reports every semantic op at issue time.
 * Observational only — recording must not perturb the simulation.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(CoreId core, const TraceOp &op) = 0;
};

/** The standard sink: buffers per-thread op streams in memory. */
class TraceRecorder : public TraceSink
{
  public:
    explicit TraceRecorder(unsigned n_threads)
    {
        data.threads.resize(n_threads);
        data.meta.numThreads = n_threads;
    }

    void
    record(CoreId core, const TraceOp &op) override
    {
        data.threads[core].push_back(op);
    }

    TraceData data;
};

} // namespace spp

#endif // SPP_TRACE_FORMAT_HH
