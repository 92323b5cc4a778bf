/**
 * @file
 * Bench CLI frontend tests: strict numeric flag, SPP_BENCH_SCALE and
 * SPP_JOBS parsing, mesh factorization for awkward core counts,
 * --mesh/--cores consistency validation, a named mesh surviving a
 * core-count override to validation, and death tests proving bad
 * input dies at the flag site with exit code 1 instead of wrapping or
 * silently misconfiguring a sweep.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

namespace {

/** Parse @p args with an unsigned and a positive FlagSet flag
 * (death-test child only). */
void
numericFlagsWith(std::vector<const char *> args)
{
    FlagSet fs("numeric flags");
    fs.onUnsigned("--reps", "N", 1, 1000, "runs per cell",
                  [](std::uint64_t) {});
    fs.onPositive("--scale", "X", "workload scale", [](double) {});
    args.insert(args.begin(), "bench");
    fs.parse(static_cast<int>(args.size()),
             const_cast<char **>(args.data()));
}

/** Read SPP_BENCH_SCALE = @p value (death-test child only). */
void
benchScaleFrom(const char *value)
{
    setenv("SPP_BENCH_SCALE", value, 1);
    defaultBenchScale();
}

/** Read SPP_JOBS = @p value (death-test child only). */
void
jobsFrom(const char *value)
{
    setenv("SPP_JOBS", value, 1);
    SweepRunner::defaultJobs();
}

/** Run initBench on a crafted argv (death-test child only). */
void
initBenchWith(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    initBench(static_cast<int>(args.size()),
              const_cast<char **>(args.data()));
}

} // namespace

TEST(ParseUnsigned, AcceptsPlainDecimal)
{
    EXPECT_EQ(parseUnsigned("--x", "42", 1, 100), 42u);
    EXPECT_EQ(parseUnsigned("--x", "1", 1, 100), 1u);
    EXPECT_EQ(parseUnsigned("--x", "100", 1, 100), 100u);
    EXPECT_EQ(parseUnsigned("--x", "0", 0, 0), 0u);
    EXPECT_EQ(parseUnsigned("--x", "007", 1, 100), 7u);
}

TEST(ParseUnsignedDeathTest, RejectsNonNumericInput)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(parseUnsigned("--cores", "abc", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", "", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", "16x", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", " 16", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", "1.5", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", nullptr, 1, 1024),
                testing::ExitedWithCode(1), "--cores");
}

TEST(ParseUnsignedDeathTest, RejectsSignsInsteadOfWrapping)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // std::atoi would have turned "-1" into a huge unsigned.
    EXPECT_EXIT(parseUnsigned("--jobs", "-1", 1, 65536),
                testing::ExitedWithCode(1), "--jobs");
    EXPECT_EXIT(parseUnsigned("--jobs", "+4", 1, 65536),
                testing::ExitedWithCode(1), "--jobs");
}

TEST(ParseUnsignedDeathTest, RejectsOverflowAndOutOfRange)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(parseUnsigned("--cores", "99999999999999999999999",
                              1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", "0", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", "1025", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
}

TEST(ParsePositive, AcceptsPositiveNumbers)
{
    double v = 0.0;
    EXPECT_EQ(parsePositive("--scale", "0.05", v), "");
    EXPECT_DOUBLE_EQ(v, 0.05);
    EXPECT_EQ(parsePositive("--scale", "2", v), "");
    EXPECT_DOUBLE_EQ(v, 2.0);
    EXPECT_EQ(parsePositive("--scale", ".5", v), "");
    EXPECT_DOUBLE_EQ(v, 0.5);
    EXPECT_EQ(parsePositive("--scale", "1e-3", v), "");
    EXPECT_DOUBLE_EQ(v, 1e-3);
}

TEST(ParsePositive, RejectsEverythingElse)
{
    for (const char *bad : {"", "abc", "0", "0.0", "-2", "+1", " 1",
                            "1x", "inf", "nan", "1e999"}) {
        double v = 7.0;
        const std::string err = parsePositive("--scale", bad, v);
        EXPECT_NE(err.find("--scale"), std::string::npos) << bad;
        EXPECT_EQ(v, 7.0) << bad;
    }
}

TEST(BenchScaleDeathTest, BadEnvironmentValueDiesNamingIt)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad : {"abc", "0", "-2"})
        EXPECT_EXIT(benchScaleFrom(bad), testing::ExitedWithCode(1),
                    "SPP_BENCH_SCALE")
            << bad;
}

TEST(BenchJobsDeathTest, BadEnvironmentValueDiesNamingIt)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad : {"abc", "4abc", "", "0", "-2", "65537"})
        EXPECT_EXIT(jobsFrom(bad), testing::ExitedWithCode(1),
                    "SPP_JOBS")
            << bad;
    // initBench probes it before any driver output.
    EXPECT_EXIT(
        {
            setenv("SPP_JOBS", "abc", 1);
            initBenchWith({"--jobs", "2"});
        },
        testing::ExitedWithCode(1), "SPP_JOBS");
}

TEST(BenchJobs, ValidEnvironmentValueSetsTheDefault)
{
    setenv("SPP_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner::defaultJobs(), 3u);
    unsetenv("SPP_JOBS");
}

TEST(FlagSetDeathTest, BadRepsAndScaleDie)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(numericFlagsWith({"--reps", "-1"}),
                testing::ExitedWithCode(1), "--reps");
    EXPECT_EXIT(numericFlagsWith({"--reps", "0"}),
                testing::ExitedWithCode(1), "--reps");
    EXPECT_EXIT(numericFlagsWith({"--scale", "abc"}),
                testing::ExitedWithCode(1), "--scale");
    EXPECT_EXIT(numericFlagsWith({"--scale=-2"}),
                testing::ExitedWithCode(1), "--scale");
}

TEST(MeshFor, FactorsTowardSquare)
{
    unsigned x = 0, y = 0;
    meshFor(16, x, y);
    EXPECT_EQ(x, 4u);
    EXPECT_EQ(y, 4u);
    meshFor(12, x, y);
    EXPECT_EQ(x, 4u);
    EXPECT_EQ(y, 3u);
    meshFor(64, x, y);
    EXPECT_EQ(x, 8u);
    EXPECT_EQ(y, 8u);
    meshFor(1, x, y);
    EXPECT_EQ(x, 1u);
    EXPECT_EQ(y, 1u);
}

TEST(MeshFor, PrimeCoreCountsDegradeToRow)
{
    // Regression: a prime core count must yield an Nx1 mesh (and
    // cover all N cores), not a rounded-down square.
    for (unsigned n : {2u, 3u, 5u, 7u, 61u, 127u, 1021u}) {
        unsigned x = 0, y = 0;
        meshFor(n, x, y);
        EXPECT_EQ(x, n) << n;
        EXPECT_EQ(y, 1u) << n;
        EXPECT_EQ(x * y, n) << n;
    }
}

TEST(MeshFor, AlwaysCoversAllCores)
{
    for (unsigned n = 1; n <= 256; ++n) {
        unsigned x = 0, y = 0;
        meshFor(n, x, y);
        EXPECT_EQ(x * y, n) << n;
        EXPECT_GE(x, y) << n;
    }
}

TEST(GeometryError, AcceptsConsistentCombinations)
{
    EXPECT_EQ(geometryError(0, 0, 0), "");     // neither flag
    EXPECT_EQ(geometryError(16, 0, 0), "");    // cores only
    EXPECT_EQ(geometryError(0, 4, 4), "");     // mesh only
    EXPECT_EQ(geometryError(16, 4, 4), "");
    EXPECT_EQ(geometryError(61, 61, 1), "");   // prime row mesh
}

TEST(GeometryError, RejectsMismatchAndOversize)
{
    EXPECT_NE(geometryError(16, 5, 5), "");
    EXPECT_NE(geometryError(61, 8, 8), "");
    // 64x64 = 4096 exceeds the 1024-core build limit even though
    // each dimension alone is legal.
    EXPECT_NE(geometryError(0, 64, 64), "");
    EXPECT_NE(geometryError(4096, 64, 64), "");
}

TEST(InitBenchDeathTest, DiesAtTheFlagSite)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(initBenchWith({"--cores", "sixteen"}),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(initBenchWith({"--jobs", "-2"}),
                testing::ExitedWithCode(1), "--jobs");
    EXPECT_EXIT(initBenchWith({"--mesh", "4", "four"}),
                testing::ExitedWithCode(1), "--mesh");
    EXPECT_EXIT(initBenchWith({"--cores", "16", "--mesh", "5", "5"}),
                testing::ExitedWithCode(1), "--mesh 5x5");
    EXPECT_EXIT(initBenchWith({"--set", "meshX=5", "--set", "meshY=5"}),
                testing::ExitedWithCode(1),
                "mesh 5x5 does not cover 16 cores");
    EXPECT_EXIT(initBenchWith({"--mesh", "5", "5", "--set",
                               "numCores=16"}),
                testing::ExitedWithCode(1),
                "mesh 5x5 does not cover 16 cores");
}

namespace {

/** applyGeometry() on a default Config under the --set overrides
 * @p settings (restored after). */
Config
geometryWith(std::vector<std::pair<std::string, std::string>> settings)
{
    std::swap(g_settings, settings);
    Config cfg;
    applyGeometry(cfg);
    std::swap(g_settings, settings);
    return cfg;
}

} // namespace

TEST(ApplyGeometry, CoreCountSetDerivesTheMesh)
{
    const Config cfg = geometryWith({{"numCores", "64"}});
    EXPECT_EQ(cfg.numCores, 64u);
    EXPECT_EQ(cfg.meshX, 8u);
    EXPECT_EQ(cfg.meshY, 8u);
    EXPECT_EQ(configValidate(cfg), "");
}

TEST(ApplyGeometry, NamedMeshIsKeptForValidation)
{
    const Config square = geometryWith({{"meshX", "5"}, {"meshY", "5"}});
    EXPECT_EQ(square.meshX, 5u);
    EXPECT_EQ(square.meshY, 5u);
    EXPECT_EQ(configValidate(square), "mesh 5x5 does not cover 16 cores");
    const Config narrow = geometryWith({{"meshX", "2"}});
    EXPECT_EQ(narrow.meshX, 2u);
    EXPECT_EQ(configValidate(narrow), "mesh 2x4 does not cover 16 cores");
}

TEST(InitBench, AcceptsValidGeometry)
{
    // Parsing side effects land in globals; restore them after.
    const unsigned cores = g_cores, mx = g_mesh_x, my = g_mesh_y;
    initBenchWith({"--cores", "61", "--mesh", "61", "1"});
    EXPECT_EQ(g_cores, 61u);
    EXPECT_EQ(g_mesh_x, 61u);
    EXPECT_EQ(g_mesh_y, 1u);
    g_cores = cores;
    g_mesh_x = mx;
    g_mesh_y = my;
}
