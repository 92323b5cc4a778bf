/**
 * @file
 * Telemetry subsystem tests: JSON model round-trips and the parser's
 * nesting bound, disabled-mode inertness, Chrome-trace
 * well-formedness, manifest round-trips, and reconciliation of the
 * trace's miss and sync instants against end-of-run aggregates.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/experiment.hh"
#include "analysis/sweep.hh"
#include "common/logging.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/json.hh"
#include "telemetry/manifest.hh"
#include "telemetry/options.hh"
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

ExperimentConfig
telemetryConfig(const std::string &dir)
{
    ExperimentConfig cfg;
    cfg.config.protocol = Protocol::predicted;
    cfg.config.predictor = PredictorKind::sp;
    cfg.scale = 0.3;
    cfg.telemetry.dir = dir;
    return cfg;
}

/** @p depth nested arrays around one number: "[[[1]]]" at 3. */
std::string
nestedArrays(std::size_t depth)
{
    return std::string(depth, '[') + "1" + std::string(depth, ']');
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

TEST(Json, ParserBoundsNestingDepth)
{
    const std::size_t max = Json::maxParseDepth;
    EXPECT_TRUE(Json::parse(nestedArrays(max)).has_value());
    EXPECT_FALSE(Json::parse(nestedArrays(max + 1)).has_value());
    // Objects count toward the same bound as arrays.
    std::string objects;
    for (std::size_t i = 0; i <= max; ++i)
        objects += "{\"k\":";
    objects += "1" + std::string(max + 1, '}');
    EXPECT_FALSE(Json::parse(objects).has_value());
}

TEST(Json, DeepNestingFailsWithoutCrashing)
{
    // Deep enough to overflow the stack of an unbounded
    // recursive-descent parser.
    EXPECT_FALSE(Json::parse(std::string(200000, '[')).has_value());
    EXPECT_FALSE(Json::parse(nestedArrays(200000)).has_value());
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

    std::ostringstream os;
    w.write(os);
    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    const Json *events = doc->find("traceEvents");
    ASSERT_TRUE(events != nullptr);
    ASSERT_TRUE(events->isArray());
    // 2 metadata records + 2 events.
    EXPECT_EQ(events->size(), 4u);

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
    EXPECT_FALSE(sys.accessObserver());
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

TEST(Telemetry, TraceParsesBackAndHasEpochTracks)
{
    QuietScope quiet;
    const std::string dir = scratchDir("trace");
    const ExperimentResult res =
        runExperiment("fft", telemetryConfig(dir));

    const auto doc = Json::parse(slurp(dir + "/fft.trace.json"));
    ASSERT_TRUE(doc.has_value());
    const Json *events = doc->find("traceEvents");
    ASSERT_TRUE(events != nullptr && events->isArray());
    ASSERT_GT(events->size(), 0u);

    std::size_t epochs = 0, misses = 0, comm_misses = 0, syncs = 0,
                meta = 0, other = 0;
    for (const Json &e : events->items()) {
        const std::string &ph = e.find("ph")->asString();
        const std::string cat =
            e.find("cat") != nullptr ? e.find("cat")->asString() : "";
        if (ph == "X" && cat == "epoch") {
            ++epochs;
            EXPECT_GE(e.find("dur")->asNumber(), 0.0);
        } else if (ph == "i" && cat == "mem") {
            ++misses;
            if (e.find("name")->asString() == "comm miss")
                ++comm_misses;
        } else if (ph == "i" && cat == "sync") {
            ++syncs;
        } else if (ph == "M") {
            ++meta;
        } else {
            ++other; // No counter tracks or stray event kinds.
        }
    }
    // Every miss and sync point is on the timeline, once.
    EXPECT_EQ(misses, res.run.mem.misses.value());
    EXPECT_EQ(comm_misses, res.run.mem.communicatingMisses.value());
    EXPECT_EQ(syncs, res.run.sync.syncPoints.value());
    EXPECT_GT(epochs, 0u);
    EXPECT_EQ(other, 0u);
    EXPECT_GT(meta, 0u); // process_name + per-core thread_name.

    const auto m = RunManifest::read(dir + "/fft.manifest.json");
    ASSERT_TRUE(m.has_value());
    const Json *files = m->find("telemetry");
    ASSERT_TRUE(files != nullptr);
    EXPECT_EQ(files->find("epochs")->asNumber(),
              static_cast<double>(epochs));
    EXPECT_EQ(files->find("trace_dropped")->asNumber(), 0.0);
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

    // Two sidecars per job plus the sweep manifest, nothing else.
    std::size_t manifests = 0, traces = 0;
    bool sweep_manifest = false;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("sweep") &&
            name.ends_with(".manifest.json")) {
            sweep_manifest = true;
        } else if (name.ends_with(".manifest.json")) {
            ++manifests;
        } else if (name.ends_with(".trace.json")) {
            ++traces;
        } else {
            ADD_FAILURE() << "unexpected sidecar " << name;
        }
    }
    EXPECT_EQ(manifests, 2u);
    EXPECT_EQ(traces, 2u);
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
