/**
 * @file
 * Attribution profiler tests: classification accounting against the
 * simulator's own counters, observational inertness (a profiled run
 * is event-for-event identical to an unobserved one), deterministic
 * artifacts across repeated runs, and exact totals under top-K
 * eviction pressure.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/attribution.hh"
#include "analysis/experiment.hh"
#include "common/logging.hh"

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
        ("spp_test_attribution_" + name);
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

/** A small predicted-protocol run that actually mispredicts. */
ExperimentConfig
baseConfig()
{
    ExperimentConfig cfg;
    cfg.config.numCores = 8;
    cfg.config.meshX = 4;
    cfg.config.meshY = 2;
    cfg.config.protocol = Protocol::predicted;
    cfg.config.predictor = PredictorKind::sp;
    cfg.scale = 0.05;
    return cfg;
}

ExperimentResult
runWithAttribution(const std::string &dir, unsigned top_k = 256)
{
    ExperimentConfig cfg = baseConfig();
    cfg.attribution.dir = dir;
    cfg.attribution.topK = top_k;
    return runExperiment("radiosity", cfg);
}

} // namespace

TEST(Attribution, ClassificationMatchesSimulatorCounters)
{
    QuietScope quiet;
    const std::string dir = scratchDir("classify");
    ExperimentResult res = runWithAttribution(dir);
    ASSERT_NE(res.attribution, nullptr);
    const AttributionProfiler &prof = *res.attribution;
    const auto &t = prof.totals();

    // Every resolved miss is classified exactly once.
    EXPECT_EQ(t.decisions(), res.run.mem.misses.value());
    // Non-"unpredicted" decisions are exactly the attempted
    // predictions, and the charged waste matches the simulator's own
    // waste counters.
    EXPECT_EQ(t.decisions() - t.unpredicted,
              res.run.mem.predictionsAttempted.value());
    EXPECT_EQ(t.wastedBytes,
              res.run.mem.predWasteBytesComm.value() +
                  res.run.mem.predWasteBytesNonComm.value());
    // Attached from tick 0, the profiler sees every NoC injection.
    EXPECT_EQ(t.messages, res.run.noc.packets.value());
    EXPECT_EQ(t.nocBytes, res.run.noc.flitBytes.value());
    // This workload/protocol must exercise all classes.
    EXPECT_GT(t.correct + t.over + t.under, 0u);
    EXPECT_GT(t.unpredicted, 0u);
}

TEST(Attribution, ObservationalInertness)
{
    QuietScope quiet;
    const std::string dir = scratchDir("inert");
    ExperimentResult plain = runExperiment("radiosity", baseConfig());
    ExperimentResult attr = runWithAttribution(dir);
    // Attribution never perturbs the simulation.
    EXPECT_EQ(plain.run.ticks, attr.run.ticks);
    EXPECT_EQ(plain.run.eventsExecuted, attr.run.eventsExecuted);
    EXPECT_EQ(plain.run.mem.misses.value(),
              attr.run.mem.misses.value());
    EXPECT_EQ(plain.attribution, nullptr);
}

TEST(Attribution, DeterministicArtifacts)
{
    QuietScope quiet;
    const std::string dir_a = scratchDir("det_a");
    const std::string dir_b = scratchDir("det_b");
    runWithAttribution(dir_a);
    runWithAttribution(dir_b);
    const std::string json_a =
        slurp(dir_a + "/radiosity.attribution.json");
    const std::string json_b =
        slurp(dir_b + "/radiosity.attribution.json");
    EXPECT_FALSE(json_a.empty());
    EXPECT_EQ(json_a, json_b);
    EXPECT_EQ(slurp(dir_a + "/radiosity.attribution.txt"),
              slurp(dir_b + "/radiosity.attribution.txt"));
    EXPECT_NE(json_a.find("\"schema\": \"spp.attribution.v1\""),
              std::string::npos);
    EXPECT_NE(json_a.find("\"region_bytes\": 4096"), std::string::npos);
}

TEST(Attribution, TopKEvictionKeepsTotalsExact)
{
    QuietScope quiet;
    const std::string dir_big = scratchDir("topk_big");
    const std::string dir_small = scratchDir("topk_small");
    ExperimentResult big = runWithAttribution(dir_big, 4096);
    ExperimentResult small = runWithAttribution(dir_small, 4);

    // The tiny store must have spilled (compaction triggers at
    // 9 * topK live keys)...
    EXPECT_LE(small.attribution->entries(), 36u);
    EXPECT_GT(small.attribution->evictions(), 0u);
    // ...yet totals are exact: identical to the unevicted run.
    const auto &tb = big.attribution->totals();
    const auto &ts = small.attribution->totals();
    EXPECT_EQ(tb.decisions(), ts.decisions());
    EXPECT_EQ(tb.wastedBytes, ts.wastedBytes);
    EXPECT_EQ(tb.nocBytes, ts.nocBytes);
    EXPECT_EQ(tb.messages, ts.messages);
    EXPECT_EQ(tb.underLatencyTicks, ts.underLatencyTicks);

    // Folded tail + surviving entries still account for everything.
    AttributionProfiler::Cell acc = small.attribution->evictedCell();
    for (const auto &e : small.attribution->sortedEntries())
        acc.fold(e.second);
    EXPECT_EQ(acc.decisions(), ts.decisions());
    EXPECT_EQ(acc.nocBytes, ts.nocBytes);

    // Eviction is deterministic: repeating the tiny-K run reproduces
    // the artifact byte-for-byte.
    const std::string dir_again = scratchDir("topk_again");
    runWithAttribution(dir_again, 4);
    EXPECT_EQ(slurp(dir_small + "/radiosity.attribution.json"),
              slurp(dir_again + "/radiosity.attribution.json"));
}

TEST(Attribution, TextReportListsTopEntries)
{
    QuietScope quiet;
    const std::string dir = scratchDir("report");
    ExperimentResult res = runWithAttribution(dir);
    const std::string report = res.attribution->textReport(5);
    EXPECT_NE(report.find("rank"), std::string::npos);
    EXPECT_NE(report.find("wasted B"), std::string::npos);
    // topN caps the table: header + summary + at most 5 data rows.
    std::size_t rows = 0;
    for (char c : report)
        rows += c == '\n';
    EXPECT_LE(rows, 12u);
}

TEST(Attribution, OptionsFromEnvironment)
{
    unsetenv("SPP_ATTRIBUTION");
    const AttributionOptions defaults = AttributionOptions::fromEnv();
    EXPECT_FALSE(defaults.enabled());
    EXPECT_EQ(defaults.topK, 256u);
    setenv("SPP_ATTRIBUTION", "attr_out", 1);
    const AttributionOptions set = AttributionOptions::fromEnv();
    unsetenv("SPP_ATTRIBUTION");
    EXPECT_TRUE(set.enabled());
    EXPECT_EQ(set.dir, "attr_out");
}
