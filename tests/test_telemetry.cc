/**
 * @file
 * Telemetry subsystem tests: JSON model round-trips, sampler cadence
 * on exact tick boundaries, disabled-mode inertness, Chrome-trace
 * well-formedness, manifest round-trips, and reconciliation of the
 * sampled series against end-of-run aggregates.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/experiment.hh"
#include "analysis/sweep.hh"
#include "common/logging.hh"
#include "event/event_queue.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/json.hh"
#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/options.hh"
#include "telemetry/sampler.hh"
#include "telemetry/telemetry.hh"

using namespace spp;

namespace fs = std::filesystem;

namespace {

struct QuietScope
{
    QuietScope() { setQuiet(true); }
    ~QuietScope() { setQuiet(false); }
};

/** Fresh, empty scratch directory under the system temp dir. */
std::string
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() /
        ("spp_test_telemetry_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** Parse the sampler CSV into (header, rows of doubles). */
struct Csv
{
    std::vector<std::string> header;
    std::vector<std::vector<double>> rows;
};

Csv
parseCsv(const std::string &text)
{
    Csv csv;
    std::istringstream is(text);
    std::string line;
    bool first = true;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string cell;
        if (first) {
            while (std::getline(ls, cell, ','))
                csv.header.push_back(cell);
            first = false;
        } else {
            std::vector<double> row;
            while (std::getline(ls, cell, ','))
                row.push_back(std::atof(cell.c_str()));
            csv.rows.push_back(std::move(row));
        }
    }
    return csv;
}

std::size_t
column(const Csv &csv, const std::string &name)
{
    for (std::size_t i = 0; i < csv.header.size(); ++i)
        if (csv.header[i] == name)
            return i;
    ADD_FAILURE() << "no CSV column '" << name << "'";
    return 0;
}

ExperimentConfig
telemetryConfig(const std::string &dir, Tick period = 200)
{
    ExperimentConfig cfg;
    cfg.config.protocol = Protocol::predicted;
    cfg.config.predictor = PredictorKind::sp;
    cfg.scale = 0.3;
    cfg.telemetry.dir = dir;
    cfg.telemetry.samplePeriod = period;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------

TEST(Json, WritesIntegralNumbersWithoutFraction)
{
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(0).dump(), "0");
    EXPECT_EQ(Json(-7).dump(), "-7");
    EXPECT_EQ(Json(1.5).dump(), "1.5");
    EXPECT_EQ(Json(std::uint64_t{1} << 40).dump(), "1099511627776");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json j = Json::object();
    j["zebra"] = Json(1);
    j["alpha"] = Json(2);
    j["mid"] = Json("x");
    EXPECT_EQ(j.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":\"x\"}");
}

TEST(Json, EscapesStrings)
{
    Json j = Json("tab\there \"quoted\"\nnewline \x01");
    const std::string text = j.dump();
    EXPECT_EQ(text,
              "\"tab\\there \\\"quoted\\\"\\nnewline \\u0001\"");
    const auto back = Json::parse(text);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->asString(), j.asString());
}

TEST(Json, RoundTripsNestedDocument)
{
    Json doc = Json::object();
    doc["list"] = Json::array();
    doc["list"].push(Json(1));
    doc["list"].push(Json("two"));
    doc["list"].push(Json(true));
    doc["list"].push(Json(nullptr));
    doc["nested"] = Json::object();
    doc["nested"]["pi"] = Json(3.25);

    for (int indent : {-1, 0}) {
        const auto back = Json::parse(doc.dump(indent));
        ASSERT_TRUE(back.has_value()) << "indent " << indent;
        EXPECT_EQ(back->dump(), doc.dump());
    }
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_FALSE(Json::parse("").has_value());
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("[1,]").has_value());
    EXPECT_FALSE(Json::parse("{\"a\": 1} trailing").has_value());
    EXPECT_FALSE(Json::parse("\"unterminated").has_value());
    EXPECT_FALSE(Json::parse("nul").has_value());
    EXPECT_TRUE(Json::parse("  {\"a\": [1, 2]}  ").has_value());
}

// ---------------------------------------------------------------------
// Sampler cadence
// ---------------------------------------------------------------------

TEST(Sampler, SamplesOnExactBoundaries)
{
    Counter count;
    MetricRegistry reg;
    reg.addCounter("count", count);

    EventQueue eq;
    Sampler s(std::move(reg), 10);
    s.attach(eq);
    ASSERT_TRUE(eq.hasTickObserver());

    eq.schedule(5, [&] { count += 1; });
    // An event exactly on a boundary: the sample fires first, so the
    // row at tick 10 must not include this increment.
    eq.schedule(10, [&] { count += 1; });
    eq.schedule(15, [] {}); // End the run off-boundary.
    eq.run();
    s.finalize();

    const auto &rows = s.rows();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].tick, 0u);
    EXPECT_EQ(rows[0].values[0], 0.0);
    EXPECT_EQ(rows[1].tick, 10u);
    EXPECT_EQ(rows[1].values[0], 1.0);
    EXPECT_EQ(rows[2].tick, 15u);
    EXPECT_EQ(rows[2].values[0], 2.0);
    EXPECT_FALSE(eq.hasTickObserver());
}

TEST(Sampler, CatchesUpAcrossSkippedBoundaries)
{
    Counter count;
    MetricRegistry reg;
    reg.addCounter("count", count);

    EventQueue eq;
    Sampler s(std::move(reg), 10);
    s.attach(eq);

    eq.schedule(5, [&] { count += 1; });
    // One event jumps over the 10, 20 and 30 boundaries: one row per
    // boundary, all showing the same quiescent state.
    eq.schedule(35, [&] { count += 1; });
    eq.run();
    s.finalize();

    const auto &rows = s.rows();
    ASSERT_EQ(rows.size(), 5u);
    const Tick ticks[] = {0, 10, 20, 30, 35};
    const double vals[] = {0, 1, 1, 1, 2};
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(rows[i].tick, ticks[i]) << "row " << i;
        EXPECT_EQ(rows[i].values[0], vals[i]) << "row " << i;
    }
}

TEST(Sampler, FinalPartialIntervalIsRecordedOnce)
{
    Counter count;
    MetricRegistry reg;
    reg.addCounter("count", count);

    EventQueue eq;
    Sampler s(std::move(reg), 10);
    s.attach(eq);
    eq.schedule(20, [&] { count += 1; });
    eq.run();

    // The run ended exactly on a boundary: finalize() must not leave
    // a duplicate row, and the final row must include the effect of
    // the boundary-tick event (the in-run sample at tick 20 preceded
    // it). finalize() is idempotent.
    s.finalize();
    s.finalize();
    const auto &rows = s.rows();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1].tick, 10u);
    EXPECT_EQ(rows[1].values[0], 0.0);
    EXPECT_EQ(rows[2].tick, 20u);
    EXPECT_EQ(rows[2].values[0], 1.0);
}

TEST(Sampler, DeltaAndGauges)
{
    Counter count;
    double level = 3.0;
    MetricRegistry reg;
    reg.addCounter("count", count);
    reg.addGauge("level", [&level] { return level; });
    ASSERT_TRUE(reg.cumulative(0));
    ASSERT_FALSE(reg.cumulative(1));

    EventQueue eq;
    Sampler s(std::move(reg), 10);
    s.attach(eq);
    eq.schedule(9, [&] { count += 4; level = 7.0; });
    eq.schedule(19, [&] { count += 2; });
    eq.schedule(21, [&] {});
    eq.run();
    s.finalize();

    // Rows: 0, 10, 20, 21 (final partial).
    ASSERT_EQ(s.rows().size(), 4u);
    EXPECT_EQ(s.delta(1, 0), 4.0);
    EXPECT_EQ(s.delta(2, 0), 2.0);
    EXPECT_EQ(s.delta(3, 0), 0.0);
    EXPECT_EQ(s.rows()[1].values[1], 7.0);

    std::ostringstream os;
    s.writeCsv(os);
    const Csv csv = parseCsv(os.str());
    ASSERT_EQ(csv.header.size(), 3u);
    EXPECT_EQ(csv.header[0], "tick");
    EXPECT_EQ(csv.header[1], "count");
    EXPECT_EQ(csv.header[2], "level");
    ASSERT_EQ(csv.rows.size(), 4u);
    EXPECT_EQ(csv.rows[2][0], 20.0);
    EXPECT_EQ(csv.rows[2][1], 6.0);
}

// ---------------------------------------------------------------------
// Chrome trace writer
// ---------------------------------------------------------------------

TEST(ChromeTrace, EmitsWellFormedDocument)
{
    ChromeTraceWriter w;
    w.setProcessName("test");
    w.setThreadName(0, "core 0");
    Json args = Json::object();
    args["staticId"] = Json(7);
    w.duration("barrier#7", "epoch", 0, 100, 250, std::move(args));
    w.instant("miss", "mem", 0, 120);
    w.counter("mem.misses", 200, 3.0);

    std::ostringstream os;
    w.write(os);
    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    const Json *events = doc->find("traceEvents");
    ASSERT_TRUE(events != nullptr);
    ASSERT_TRUE(events->isArray());
    // 2 metadata records + 3 events.
    EXPECT_EQ(events->size(), 5u);

    bool saw_duration = false;
    for (const Json &e : events->items()) {
        const Json *ph = e.find("ph");
        ASSERT_TRUE(ph != nullptr);
        if (ph->asString() == "X") {
            saw_duration = true;
            EXPECT_EQ(e.find("name")->asString(), "barrier#7");
            EXPECT_EQ(e.find("dur")->asNumber(), 150.0);
            EXPECT_EQ(e.find("ts")->asNumber(), 100.0);
        }
    }
    EXPECT_TRUE(saw_duration);
}

TEST(ChromeTrace, CountsDropsPastTheCap)
{
    ChromeTraceWriter w(2);
    w.setProcessName("test"); // Metadata never drops.
    w.instant("a", "c", 0, 1);
    w.instant("b", "c", 0, 2);
    w.instant("c", "c", 0, 3);
    w.instant("d", "c", 0, 4);
    EXPECT_EQ(w.events(), 2u);
    EXPECT_EQ(w.dropped(), 2u);

    const Json doc = w.toJson();
    const Json *other = doc.find("otherData");
    ASSERT_TRUE(other != nullptr);
    EXPECT_EQ(other->find("droppedEvents")->asNumber(), 2.0);
}

TEST(ChromeTrace, ZeroEventRunIsStillWellFormed)
{
    // A run that terminates before anything is recorded must still
    // produce a document every viewer opens.
    ChromeTraceWriter w;
    std::ostringstream os;
    w.write(os);
    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    const Json *events = doc->find("traceEvents");
    ASSERT_TRUE(events != nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_EQ(events->size(), 0u);
    EXPECT_EQ(w.events(), 0u);
    EXPECT_EQ(w.dropped(), 0u);
}

TEST(ChromeTrace, CounterOnlyRunRoundTrips)
{
    // Counter tracks alone (no duration/instant events) — the shape
    // the attribution epoch-annotator produces on runs whose event
    // tracks are disabled.
    ChromeTraceWriter w;
    w.counter("attr.barrier#0x40.wasted_bytes", 100, 128.0);
    w.counter("attr.barrier#0x40.wasted_bytes", 200, 0.0);
    w.counter("attr.barrier#0x40.noc_bytes", 200, 4096.0);

    std::ostringstream os;
    w.write(os);
    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    const Json *events = doc->find("traceEvents");
    ASSERT_TRUE(events != nullptr);
    ASSERT_EQ(events->size(), 3u);
    for (const Json &e : events->items()) {
        EXPECT_EQ(e.find("ph")->asString(), "C");
        const Json *args = e.find("args");
        ASSERT_TRUE(args != nullptr);
        ASSERT_TRUE(args->find("value") != nullptr);
    }
    // Zero-valued samples survive the round-trip (they terminate a
    // spike in the viewer; dropping them would hold the last value).
    bool saw_zero = false;
    for (const Json &e : events->items())
        saw_zero |= e.find("args")->find("value")->asNumber() == 0.0;
    EXPECT_TRUE(saw_zero);
}

TEST(ChromeTrace, ZeroWidthDurationRoundTrips)
{
    // An epoch opened and closed on the same tick (back-to-back sync
    // points) must emit dur = 0, not vanish and not go negative.
    ChromeTraceWriter w;
    w.duration("lock#0x9", "epoch", 3, 500, 500);
    w.duration("lock#0x9", "epoch", 3, 500, 501);

    std::ostringstream os;
    w.write(os);
    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    const Json *events = doc->find("traceEvents");
    ASSERT_TRUE(events != nullptr);
    ASSERT_EQ(events->size(), 2u);
    const Json &zero = events->items()[0];
    EXPECT_EQ(zero.find("ph")->asString(), "X");
    EXPECT_EQ(zero.find("ts")->asNumber(), 500.0);
    EXPECT_EQ(zero.find("dur")->asNumber(), 0.0);
    EXPECT_EQ(events->items()[1].find("dur")->asNumber(), 1.0);
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

TEST(Manifest, RoundTripsThroughDisk)
{
    const std::string dir = scratchDir("manifest");
    RunManifest m;
    m.set("label", Json("unit"));
    m.beginPhase("alpha");
    m.beginPhase("beta");
    m.endPhase();

    const std::string path = dir + "/m.json";
    m.write(path);
    const auto back = RunManifest::read(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->find("schema")->asString(),
              "spp-run-manifest-v1");
    EXPECT_EQ(back->find("label")->asString(), "unit");
    EXPECT_EQ(back->find("git_describe")->asString(), gitDescribe());
    const Json *phases = back->find("phases");
    ASSERT_TRUE(phases != nullptr);
    ASSERT_EQ(phases->size(), 2u);
    EXPECT_EQ(phases->members()[0].first, "alpha");
    EXPECT_EQ(phases->members()[1].first, "beta");
    EXPECT_GE(phases->members()[0].second.asNumber(), 0.0);

    EXPECT_FALSE(RunManifest::read(dir + "/absent.json").has_value());
}

// ---------------------------------------------------------------------
// Options / labels
// ---------------------------------------------------------------------

TEST(TelemetryOptions, SanitizeFileLabel)
{
    EXPECT_EQ(sanitizeFileLabel("fft/directory"), "fft_directory");
    EXPECT_EQ(sanitizeFileLabel("ok-1.2_x"), "ok-1.2_x");
    EXPECT_EQ(sanitizeFileLabel(""), "run");
    EXPECT_EQ(sanitizeFileLabel("a b:c"), "a_b_c");
}

TEST(TelemetryOptions, PeriodFromEnvironment)
{
    setenv("SPP_TELEMETRY_PERIOD", "12", 1);
    EXPECT_EQ(TelemetryOptions::fromEnv().samplePeriod, 12u);
    unsetenv("SPP_TELEMETRY_PERIOD");
}

TEST(TelemetryOptionsDeathTest, BadPeriodDiesNamingIt)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad : {"12x", "abc", "0", "-5"})
        EXPECT_EXIT(
            {
                setenv("SPP_TELEMETRY_PERIOD", bad, 1);
                TelemetryOptions::fromEnv();
            },
            testing::ExitedWithCode(1), "SPP_TELEMETRY_PERIOD")
            << bad;
}

// ---------------------------------------------------------------------
// Disabled mode
// ---------------------------------------------------------------------

TEST(Telemetry, DisabledModeIsInert)
{
    QuietScope quiet;
    RunTelemetry rt(TelemetryOptions{}, "off");
    EXPECT_FALSE(rt.enabled());

    Config cfg;
    cfg.protocol = Protocol::directory;
    CmpSystem sys(cfg);
    rt.attach(sys);
    EXPECT_FALSE(rt.attached());
    EXPECT_FALSE(sys.eventQueue().hasTickObserver());
    EXPECT_EQ(rt.sampler(), nullptr);
    EXPECT_EQ(rt.trace(), nullptr);
    rt.finish(RunResult{}); // Must be a no-op, not a crash.
}

TEST(Telemetry, DisabledRunMatchesObservedRun)
{
    QuietScope quiet;
    const std::string dir = scratchDir("equiv");

    ExperimentConfig plain;
    plain.config.protocol = Protocol::predicted;
    plain.config.predictor = PredictorKind::sp;
    plain.scale = 0.3;
    ExperimentConfig observed = plain;
    observed.telemetry.dir = dir;
    observed.telemetry.samplePeriod = 100;

    const ExperimentResult a = runExperiment("fft", plain);
    const ExperimentResult b = runExperiment("fft", observed);
    EXPECT_EQ(a.run.ticks, b.run.ticks);
    EXPECT_EQ(a.run.mem.misses.value(), b.run.mem.misses.value());
    EXPECT_EQ(a.run.mem.communicatingMisses.value(),
              b.run.mem.communicatingMisses.value());
    EXPECT_EQ(a.run.noc.flitBytes.value(),
              b.run.noc.flitBytes.value());
    EXPECT_EQ(a.run.eventsExecuted, b.run.eventsExecuted);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// End-to-end sidecars
// ---------------------------------------------------------------------

TEST(Telemetry, SeriesReconcilesWithAggregates)
{
    QuietScope quiet;
    const std::string dir = scratchDir("series");
    const ExperimentResult res =
        runExperiment("fft", telemetryConfig(dir));

    const Csv csv = parseCsv(slurp(dir + "/fft.series.csv"));
    ASSERT_GE(csv.rows.size(), 2u);
    ASSERT_EQ(csv.header[0], "tick");
    const auto &last = csv.rows.back();
    EXPECT_EQ(last[column(csv, "mem.accesses")],
              static_cast<double>(res.run.mem.accesses.value()));
    EXPECT_EQ(last[column(csv, "mem.misses")],
              static_cast<double>(res.run.mem.misses.value()));
    EXPECT_EQ(last[column(csv, "mem.comm_misses")],
              static_cast<double>(
                  res.run.mem.communicatingMisses.value()));
    EXPECT_EQ(last[column(csv, "noc.flit_bytes")],
              static_cast<double>(res.run.noc.flitBytes.value()));
    EXPECT_EQ(last[column(csv, "sync.sync_points")],
              static_cast<double>(res.run.sync.syncPoints.value()));
    EXPECT_EQ(last[column(csv, "sp.epochs")],
              static_cast<double>(res.run.sp.epochsStarted.value()));
    // The final row is stamped with the end-of-run tick.
    EXPECT_EQ(last[0], static_cast<double>(res.run.ticks));

    // Per-core columns sum to the aggregate.
    double core_misses = 0.0;
    for (std::size_t i = 0; i < csv.header.size(); ++i) {
        if (csv.header[i].find("mem.core") == 0 &&
            csv.header[i].find(".misses") != std::string::npos) {
            core_misses += last[i];
        }
    }
    EXPECT_EQ(core_misses,
              static_cast<double>(res.run.mem.misses.value()));

    // Monotonic cumulative columns.
    const std::size_t misses_col = column(csv, "mem.misses");
    for (std::size_t r = 1; r < csv.rows.size(); ++r)
        EXPECT_GE(csv.rows[r][misses_col],
                  csv.rows[r - 1][misses_col]);
    fs::remove_all(dir);
}

TEST(Telemetry, TraceParsesBackAndHasEpochTracks)
{
    QuietScope quiet;
    const std::string dir = scratchDir("trace");
    const ExperimentResult res =
        runExperiment("fft", telemetryConfig(dir));
    (void)res;

    const auto doc = Json::parse(slurp(dir + "/fft.trace.json"));
    ASSERT_TRUE(doc.has_value());
    const Json *events = doc->find("traceEvents");
    ASSERT_TRUE(events != nullptr && events->isArray());
    ASSERT_GT(events->size(), 0u);

    std::size_t epochs = 0, instants = 0, counters = 0, meta = 0;
    for (const Json &e : events->items()) {
        const std::string &ph = e.find("ph")->asString();
        if (ph == "X" && e.find("cat") != nullptr &&
            e.find("cat")->asString() == "epoch") {
            ++epochs;
            EXPECT_GE(e.find("dur")->asNumber(), 0.0);
        } else if (ph == "i") {
            ++instants;
        } else if (ph == "C") {
            ++counters;
        } else if (ph == "M") {
            ++meta;
        }
    }
    EXPECT_GT(epochs, 0u);
    EXPECT_GT(instants, 0u);
    EXPECT_GT(counters, 0u);
    EXPECT_GT(meta, 0u); // process_name + per-core thread_name.
    fs::remove_all(dir);
}

TEST(Telemetry, ManifestRecordsConfigHashAndPhases)
{
    QuietScope quiet;
    const std::string dir = scratchDir("run_manifest");
    const ExperimentResult res =
        runExperiment("fft", telemetryConfig(dir));

    const auto m = RunManifest::read(dir + "/fft.manifest.json");
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->find("workload")->asString(), "fft");
    const Json *cfg = m->find("config");
    ASSERT_TRUE(cfg != nullptr);
    EXPECT_EQ(cfg->find("hash")->asString().size(), 16u);
    EXPECT_EQ(cfg->find("protocol")->asString(), "predicted");
    const Json *phases = m->find("phases");
    ASSERT_TRUE(phases != nullptr);
    ASSERT_EQ(phases->size(), 3u);
    EXPECT_EQ(phases->members()[0].first, "build");
    EXPECT_EQ(phases->members()[1].first, "run");
    EXPECT_EQ(phases->members()[2].first, "finalize");
    const Json *summary = m->find("result");
    ASSERT_TRUE(summary != nullptr);
    EXPECT_EQ(summary->find("misses")->asNumber(),
              static_cast<double>(res.run.mem.misses.value()));
    fs::remove_all(dir);
}

TEST(Telemetry, SweepWritesPerJobSidecarsAndAggregateManifest)
{
    QuietScope quiet;
    const std::string dir = scratchDir("sweep");
    const ExperimentConfig cfg = telemetryConfig(dir);
    // Two jobs with the same workload: labels must not collide.
    const std::vector<SweepJob> jobs = {
        {"fft", cfg, ""},
        {"fft", cfg, ""},
    };
    runSweep(jobs, 2);

    std::size_t manifests = 0, series = 0;
    bool sweep_manifest = false;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.find("sweep") == 0 &&
            name.find(".manifest.json") != std::string::npos) {
            sweep_manifest = true;
        } else if (name.find(".manifest.json") != std::string::npos) {
            ++manifests;
        } else if (name.find(".series.csv") != std::string::npos) {
            ++series;
        }
    }
    EXPECT_EQ(manifests, 2u);
    EXPECT_EQ(series, 2u);
    EXPECT_TRUE(sweep_manifest);

    const auto m = RunManifest::read(dir + "/sweep.manifest.json");
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->find("kind")->asString(), "sweep");
    const Json *job_list = m->find("jobs");
    ASSERT_TRUE(job_list != nullptr);
    ASSERT_EQ(job_list->size(), 2u);
    for (const Json &row : job_list->items()) {
        EXPECT_EQ(row.find("workload")->asString(), "fft");
        EXPECT_GT(row.find("wall_ms")->asNumber(), 0.0);
    }
    fs::remove_all(dir);
}
