/**
 * @file
 * In-memory span log of the traced run.
 *
 * Spans are recorded around every call the benchmark makes into a
 * layer (or wraps, via the public hooks): name, start, end, parent
 * and cell id. They stay in memory and are written once, at exit, as
 * Chrome-trace JSON (chrome://tracing and ui.perfetto.dev open it).
 * Deliveries are too many to keep one by one, so each cell keeps the
 * first few as spans and folds the rest into an aggregate charged to
 * its parent; self time (a span minus its children) accounts for both.
 */

#ifndef SIMBENCH_SPANS_HH
#define SIMBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "simbench.hh"

namespace simbench {

class SpanLog
{
  public:
    static constexpr int noParent = -1;

    SpanLog() : origin_(Clock::now()) {}

    /** Open a span; returns its id for close() and as a parent. */
    int open(const char *name, int parent, unsigned cell,
             unsigned tid = 0);
    void close(int id);

    /** Record a finished span with explicit times (µs since origin). */
    int add(const char *name, int parent, unsigned cell, unsigned tid,
            double start_us, double end_us);

    /**
     * Charge @p total_us spent in @p count un-logged children named
     * @p name to span @p parent (sampled deliveries).
     */
    void aggregate(int parent, const char *name, double total_us,
                   std::uint64_t count);

    /** Microseconds since the log's origin. */
    double nowUs() const;

    /** Duration of closed span @p id, in seconds. */
    double seconds(int id) const;

    struct Totals
    {
        double total_us = 0;
        double self_us = 0;
        std::uint64_t count = 0;
    };

    /** Per-name total and self time (span minus children). */
    std::map<std::string, Totals> totals() const;

    /** Write Chrome-trace JSON with @p manifest as its metadata;
     * false (with a warning) on failure. */
    bool writeChrome(const std::string &path,
                     const spp::Json &manifest) const;

    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        const char *name;
        double start_us;
        double end_us;
        int parent;
        unsigned cell;
        unsigned tid;
        double aggregated_us;   ///< Un-logged children's time.
    };

    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::string, Totals> aggregates_;
};

} // namespace simbench

#endif // SIMBENCH_SPANS_HH
