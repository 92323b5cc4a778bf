/**
 * @file
 * Result-store tests: codec round-trip fidelity, cold-miss ->
 * populate -> warm-hit byte identity (at any worker count), key
 * invalidation on config/scale/git changes, corrupt, deeply nested
 * and mismatched entries rejected and re-simulated, and cacheability
 * bypasses.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/sweep.hh"
#include "common/config.hh"
#include "common/content_store.hh"
#include "common/logging.hh"
#include "service/result_codec.hh"
#include "service/result_store.hh"
#include "telemetry/json.hh"

using namespace spp;

namespace {

struct QuietScope
{
    QuietScope() { setQuiet(true); }
    ~QuietScope() { setQuiet(false); }
};

/** Fresh temp directory, removed on scope exit. */
struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const char *tag)
    {
        path = std::filesystem::temp_directory_path() /
            (std::string("spp_result_store_test_") + tag);
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~TempDir() { std::filesystem::remove_all(path); }

    std::string str() const { return path.string(); }
};

/** A fast cell: paper config, tiny iteration scale. */
ExperimentConfig
smallCell()
{
    ExperimentConfig x;
    x.scale = 0.05;
    return x;
}

/** Canonical byte rendering of a result (what the store writes). */
std::string
render(const ExperimentResult &res)
{
    return resultToJson(res).dump();
}

std::string
entryPathFor(const std::string &dir, const std::string &workload,
             const ExperimentConfig &x, const std::string &git)
{
    const ContentKey key =
        resultKey(workload, x.config, x.scale, x.collectTrace,
                  x.recordMissTargets, git);
    return resultPath(dir, workload, key.hash());
}

} // namespace

TEST(ResultCodec, RoundTripsFullResultWithTrace)
{
    QuietScope quiet;
    ExperimentConfig x = smallCell();
    x.collectTrace = true;
    x.recordMissTargets = true;
    const ExperimentResult live = runExperiment("ocean", x);
    ASSERT_NE(live.trace, nullptr);

    const Json doc = resultToJson(live);
    ExperimentResult back;
    std::string err;
    ASSERT_TRUE(resultFromJson(doc, back, err)) << err;
    EXPECT_EQ(render(back), render(live));
    ASSERT_NE(back.trace, nullptr);
    EXPECT_EQ(back.trace->totalMisses(), live.trace->totalMisses());
}

TEST(ResultCodec, RejectsMalformedDocuments)
{
    ExperimentResult out;
    std::string err;
    EXPECT_FALSE(resultFromJson(Json("not an object"), out, err));
    EXPECT_FALSE(resultFromJson(Json::object(), out, err));
    EXPECT_FALSE(err.empty());
}

TEST(ResultStore, ColdMissThenWarmHitIsByteIdentical)
{
    QuietScope quiet;
    TempDir dir("warm");
    ExperimentConfig x = smallCell();
    x.resultStore.dir = dir.str();

    resultStoreStats().reset();
    const ExperimentResult cold = runExperiment("ocean", x);
    EXPECT_EQ(resultStoreStats().misses, 1u);
    EXPECT_EQ(resultStoreStats().hits, 0u);

    const ExperimentResult warm = runExperiment("ocean", x);
    EXPECT_EQ(resultStoreStats().hits, 1u);
    EXPECT_EQ(render(warm), render(cold));
}

TEST(ResultStore, WarmSweepIsByteIdenticalAtAnyJobCount)
{
    QuietScope quiet;
    TempDir dir("jobs");
    std::vector<SweepJob> jobs;
    for (const char *workload : {"ocean", "fmm"}) {
        for (const Protocol proto :
             {Protocol::directory, Protocol::broadcast}) {
            ExperimentConfig x = smallCell();
            x.config.protocol = proto;
            x.resultStore.dir = dir.str();
            jobs.push_back({workload, x, ""});
        }
    }

    resultStoreStats().reset();
    const std::vector<ExperimentResult> cold = runSweep(jobs, 1);
    EXPECT_EQ(resultStoreStats().misses, jobs.size());

    resultStoreStats().reset();
    const std::vector<ExperimentResult> warm = runSweep(jobs, 4);
    EXPECT_EQ(resultStoreStats().hits, jobs.size());
    EXPECT_EQ(resultStoreStats().misses, 0u);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(render(warm[i]), render(cold[i])) << i;
}

TEST(ResultStore, KeyChangesWithConfigScaleFlagsAndGit)
{
    const ExperimentConfig x = smallCell();
    const std::uint64_t base =
        resultKey("ocean", x.config, x.scale, false, false, "v1")
            .hash();

    Config tweaked = x.config;
    tweaked.seed += 1;
    EXPECT_NE(resultKey("ocean", tweaked, x.scale, false, false,
                        "v1")
                  .hash(),
              base);
    EXPECT_NE(resultKey("ocean", x.config, x.scale * 2, false,
                        false, "v1")
                  .hash(),
              base);
    EXPECT_NE(resultKey("ocean", x.config, x.scale, true, false,
                        "v1")
                  .hash(),
              base);
    EXPECT_NE(resultKey("ocean", x.config, x.scale, false, false,
                        "v2-dirty")
                  .hash(),
              base);
    EXPECT_NE(resultKey("fmm", x.config, x.scale, false, false,
                        "v1")
                  .hash(),
              base);
    // Same inputs, same key: the store is consultable across runs.
    EXPECT_EQ(resultKey("ocean", x.config, x.scale, false, false,
                        "v1")
                  .hash(),
              base);
}

TEST(ResultStore, ConfigChangeMissesInsteadOfServingStale)
{
    QuietScope quiet;
    TempDir dir("stale");
    ExperimentConfig x = smallCell();
    x.resultStore.dir = dir.str();
    (void)runExperiment("ocean", x);

    x.config.seed += 17;
    resultStoreStats().reset();
    (void)runExperiment("ocean", x);
    EXPECT_EQ(resultStoreStats().hits, 0u);
    EXPECT_EQ(resultStoreStats().misses, 1u);
}

TEST(ResultStore, CorruptEntryIsRejectedAndResimulated)
{
    QuietScope quiet;
    TempDir dir("corrupt");
    ExperimentConfig x = smallCell();
    x.resultStore.dir = dir.str();
    const ExperimentResult cold = runExperiment("ocean", x);

    // Find the one entry and truncate it mid-document.
    std::string entry;
    for (const auto &de :
         std::filesystem::directory_iterator(dir.path))
        entry = de.path().string();
    ASSERT_FALSE(entry.empty());
    {
        std::ifstream in(entry, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        ASSERT_GT(bytes.size(), 64u);
        std::ofstream out(entry,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }

    resultStoreStats().reset();
    const ExperimentResult redone = runExperiment("ocean", x);
    EXPECT_EQ(resultStoreStats().corrupt, 1u);
    EXPECT_EQ(resultStoreStats().hits, 0u);
    EXPECT_EQ(render(redone), render(cold));

    // The re-simulation overwrote the bad entry: warm again.
    resultStoreStats().reset();
    (void)runExperiment("ocean", x);
    EXPECT_EQ(resultStoreStats().hits, 1u);
}

TEST(ResultStore, DeeplyNestedEntryIsCorruptNotACrash)
{
    QuietScope quiet;
    TempDir dir("nested");
    ExperimentConfig x = smallCell();
    x.resultStore.dir = dir.str();
    const ExperimentResult cold = runExperiment("ocean", x);

    // Replace the one entry with nesting deep enough to overflow the
    // stack of an unbounded recursive-descent parser.
    std::string entry;
    for (const auto &de :
         std::filesystem::directory_iterator(dir.path))
        entry = de.path().string();
    ASSERT_FALSE(entry.empty());
    {
        std::ofstream out(entry, std::ios::binary | std::ios::trunc);
        out << std::string(200000, '[');
    }

    resultStoreStats().reset();
    setQuiet(false);
    testing::internal::CaptureStderr();
    const ExperimentResult redone = runExperiment("ocean", x);
    const std::string log = testing::internal::GetCapturedStderr();
    setQuiet(true);
    EXPECT_EQ(resultStoreStats().corrupt, 1u);
    EXPECT_EQ(resultStoreStats().hits, 0u);
    EXPECT_NE(log.find("not a well-formed JSON document"),
              std::string::npos)
        << log;
    EXPECT_EQ(render(redone), render(cold));

    // The re-simulation overwrote the bad entry: warm again.
    resultStoreStats().reset();
    (void)runExperiment("ocean", x);
    EXPECT_EQ(resultStoreStats().hits, 1u);
}

TEST(ResultStore, MismatchedKeyPreimageIsCorruptNotAHit)
{
    QuietScope quiet;
    TempDir dir("preimage");
    ExperimentConfig x = smallCell();
    const ExperimentResult res = runExperiment("ocean", x);

    // Write a well-formed entry recording a DIFFERENT key preimage
    // at the path our key hashes to (a renamed file / collision).
    const std::string path =
        entryPathFor(dir.str(), "ocean", x, "v1");
    storeResult(path, "result_v1 something=else", res);
    const ContentKey key =
        resultKey("ocean", x.config, x.scale, false, false, "v1");

    resultStoreStats().reset();
    ExperimentResult out;
    EXPECT_FALSE(loadCachedResult(path, key.describe(), out));
    EXPECT_EQ(resultStoreStats().corrupt, 1u);
}

TEST(ResultStore, RefreshResimulatesAndOverwrites)
{
    QuietScope quiet;
    TempDir dir("refresh");
    ExperimentConfig x = smallCell();
    x.resultStore.dir = dir.str();
    const ExperimentResult cold = runExperiment("ocean", x);

    x.resultStore.refresh = true;
    resultStoreStats().reset();
    const ExperimentResult redone = runExperiment("ocean", x);
    EXPECT_EQ(resultStoreStats().hits, 0u);
    EXPECT_EQ(resultStoreStats().misses, 1u);
    EXPECT_EQ(render(redone), render(cold));
}

TEST(ResultStore, UncacheableCellsBypassTheStore)
{
    QuietScope quiet;
    TempDir dir("bypass");
    ExperimentConfig x = smallCell();
    x.resultStore.dir = dir.str();
    x.checkCoherence = true;
    EXPECT_FALSE(resultCacheable(x));

    resultStoreStats().reset();
    (void)runExperiment("ocean", x);
    EXPECT_EQ(resultStoreStats().bypasses, 1u);
    EXPECT_EQ(resultStoreStats().hits, 0u);
    EXPECT_EQ(resultStoreStats().misses, 0u);
    // No entry was written.
    unsigned entries = 0;
    for (const auto &de :
         std::filesystem::directory_iterator(dir.path)) {
        (void)de;
        ++entries;
    }
    EXPECT_EQ(entries, 0u);
}
