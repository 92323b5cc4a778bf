/**
 * @file
 * Shared declarations of the simulator benchmark.
 *
 * The benchmark links the spp library and calls only its public API
 * (Config/CmpSystem, runExperiment/SweepRunner, the result store,
 * TraceRecorder/replayThreadFn and the observer hooks). It runs one
 * workload per process, untraced (end-to-end metrics) or traced
 * (per-layer metrics), and prints a JSON summary as its last line.
 */

#ifndef SIMBENCH_SIMBENCH_HH
#define SIMBENCH_SIMBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/cmp_system.hh"
#include "telemetry/json.hh"
#include "workload/workload.hh"

namespace simbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of the whole process, all threads. */
double cpuSeconds();

/** Peak resident set of the process so far (ru_maxrss), MiB. */
double peakRssMiB();

/** Measured passes of an untraced run, at least. */
constexpr unsigned minPasses = 3;

/** Command-line settings of one benchmark process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double scale = 0;           ///< 0 = the workload's default.
    spp::Tick maxTicks = 0;     ///< Forced cell timeout (self-test).
    std::string digestFile;     ///< Committed seed-1 digests.
    std::string writeDigest;    ///< Write this run's digests here.
    std::string outDir = ".";   ///< Spans file and scratch stores.
    spp::Json manifest;         ///< Run settings, echoed into outputs.
};

/** The four workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Default workload scale (WorkloadParams::scale) per workload. */
double defaultScale(const std::string &workload);

/** One simulated machine + program: the unit of work. */
struct Cell
{
    std::string label;      ///< "program/protocol[/format]".
    std::string program;    ///< Registry name of the generator.
    spp::Config cfg;
};

/** The cells of paper16, snoop16 or wide256. */
std::vector<Cell> serialCells(const Options &o);

/** Live generator thread function of @p program at @p scale. */
spp::CmpSystem::ThreadFn liveThreadFn(const std::string &program,
                                      double scale);

/**
 * Digest of every modelled statistic of a run: ticks,
 * Mem/Noc/Sync/Sp stats, predictor storage and table accesses and
 * indirections avoided. eventsExecuted is left out: a kernel change
 * may legitimately alter how many events model the same behaviour.
 */
std::uint64_t statsDigest(const spp::RunResult &r);

/** Attempted/failed operations and the first failure messages. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    void fail(const std::string &why);
};

/**
 * Digest checks: a cell's statistics must repeat exactly across
 * reps, and (seed 1, default scale) match the committed digest.
 */
class DigestBook
{
  public:
    DigestBook(const Options &o, double scale);

    /** "" when @p digest passes both checks, else the reason
     * (without the label). */
    std::string check(const std::string &label, std::uint64_t digest);

    /** Print the check counts; append this run's first-rep digests
     * to opts.writeDigest when one was given. */
    void finish() const;

  private:
    std::string prefix_;    ///< "workload scale" key prefix.
    bool use_committed_ = false;
    std::string write_path_;
    std::map<std::string, std::uint64_t> committed_;
    std::map<std::string, std::uint64_t> first_;
    std::vector<std::string> order_;
    std::size_t committed_checks_ = 0;
};

/** One reported metric; value is the median when samples exist. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    std::vector<double> samples;   ///< Per-pass values (timings).
    std::string note;
};

/** Ordered metric list with a human table and the JSON object. */
class Report
{
  public:
    void add(const std::string &name, const std::string &unit,
             double value, const std::string &note = "");
    void addSamples(const std::string &name, const std::string &unit,
                    std::vector<double> samples,
                    const std::string &note = "");

    void print() const;
    spp::Json json() const;

  private:
    std::vector<Metric> metrics_;
};

double median(std::vector<double> v);
/** Linear-interpolated @p p-th percentile (0..100). */
double percentile(std::vector<double> v, double p);

// --- Workloads (one file each) ------------------------------------

/** Untraced serial workload: end-to-end metrics. */
void runSerial(const Options &o, Report &rep, Tally &tally);

/** Traced serial workload: per-layer metrics. */
void runSerialTraced(const Options &o, Report &rep, Tally &tally);

/** The figures workload, untraced or traced. */
void runFigures(const Options &o, Report &rep, Tally &tally);

} // namespace simbench

#endif // SIMBENCH_SIMBENCH_HH
