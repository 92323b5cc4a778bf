/**
 * @file
 * The traced run: per-cell hooked live pass, replays of the captured
 * layer inputs into standalone layer instances, and the per-layer
 * metrics computed from them.
 */

#ifndef SIMBENCH_TRACED_HH
#define SIMBENCH_TRACED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "simbench.hh"
#include "spans.hh"

namespace simbench {

/** Sums over the cells of one traced pass. */
struct LayerTotals
{
    // Modelled, exact (from RunResult and the hooks).
    std::uint64_t cells = 0;
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t commMisses = 0;
    std::uint64_t snoopLookups = 0;
    std::uint64_t events = 0;
    std::uint64_t packets = 0;
    std::uint64_t deliveries = 0;    ///< Seen by the scheduler hook.
    std::uint64_t hops = 0;
    std::uint64_t poolAllocs = 0;
    std::uint64_t predAttempted = 0;
    std::uint64_t predSufficient = 0;
    std::uint64_t predWasteBytes = 0;
    std::uint64_t predCalls = 0;     ///< Live predictor calls.
    std::uint64_t syncPoints = 0;
    std::uint64_t lockAcquisitions = 0;
    std::uint64_t lockContended = 0;
    std::uint64_t ops = 0;           ///< Ops seen by the recorder.
    double linkBusyMaxPct = 0;
    double accuracySum = 0;          ///< Fig. 7 total, per SP cell.
    unsigned accuracyCells = 0;
    std::vector<std::uint64_t> queueHist;    ///< NoC queue cycles.
    std::vector<std::uint64_t> latencyHist;  ///< Miss latency.

    // Replay hit rates (printed beside the live ones, not checked).
    std::uint64_t replayLookups = 0;
    std::uint64_t replayL1Hits = 0;
    std::uint64_t replayL2Lookups = 0;
    std::uint64_t replayL2Hits = 0;

    // Host seconds.
    double setupS = 0;          ///< Untraced constructors.
    double runS = 0;            ///< Untraced runs.
    double tracedRunS = 0;      ///< Hooked runs.
    double deliveryRawS = 0;    ///< Delivery spans, hooks included.
    double deliveryS = 0;       ///< Delivery spans minus hook time.
    double replayRunS = 0;      ///< replayThreadFn runs.
    double eventReplayS = 0;
    std::uint64_t eventReplayEvents = 0;
    double nocReplayS = 0;      ///< Injections only (advance removed).
    double memReplayS = 0;
    double spReplayS = 0;
    std::uint64_t spReplayCalls = 0;
    double storeHitS = 0;
    double storePutS = 0;
    std::uint64_t storeOps = 0;

    // Analysis and service layers (figures only).
    double sweepBusyPct = 0;
    double sweepStragglerPct = 0;
    double commtraceOverheadPct = 0;
    double storeHitPct = 0;
};

/**
 * Trace one cell: an untraced reference run (checked against
 * @p book when given), a hooked live run (followed by the invariant
 * checks when @p check), a replayThreadFn run, the layer replays and,
 * with a @p store_dir, a result-store round trip. Exactness failures
 * go to @p tally.
 */
void traceCell(const Cell &cell, double scale, unsigned cell_id,
               const std::string &store_dir, SpanLog &log, int parent,
               LayerTotals &t, Tally &tally, DigestBook *book,
               bool check);

/** Per-layer metric values of one pass, in BENCHMARK.json order. */
std::vector<Metric> layerMetrics(const LayerTotals &t);

/** Report the median over passes of each per-layer metric. */
void reportLayers(const std::vector<LayerTotals> &passes, Report &rep);

/** Print span self times and write the Chrome-trace file. */
void finishSpans(const SpanLog &log, const Options &o);

} // namespace simbench

#endif // SIMBENCH_TRACED_HH
