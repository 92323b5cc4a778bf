/**
 * @file
 * System-size generality: the machine, protocols and workloads are
 * parameterized by core count, mesh shape and directory sharer
 * format; 4-core (2x2) through 256-core (16x16) systems — square or
 * rectangular — must work end to end, not just the paper's 16-core
 * 4x4 configuration.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/experiment.hh"
#include "harness.hh"

using namespace spp;
using namespace spp::test;

namespace {

Config
sized(unsigned cores, unsigned x, unsigned y,
      SharerFormat fmt = SharerFormat::full,
      Protocol proto = Protocol::directory,
      PredictorKind kind = PredictorKind::none)
{
    Config cfg = ProtoHarness::smallConfig();
    cfg.numCores = cores;
    cfg.meshX = x;
    cfg.meshY = y;
    cfg.sharerFormat = fmt;
    cfg.protocol = proto;
    cfg.predictor = kind;
    return cfg;
}

struct SizeParam
{
    unsigned cores, x, y;
    SharerFormat fmt;
};

class MeshSizes : public ::testing::TestWithParam<SizeParam>
{};

} // namespace

TEST_P(MeshSizes, ProtocolScenariosHold)
{
    const auto [cores, x, y, fmt] = GetParam();
    const std::pair<Protocol, PredictorKind> protos[] = {
        {Protocol::directory, PredictorKind::none},
        {Protocol::broadcast, PredictorKind::none},
        {Protocol::predicted, PredictorKind::sp},
        {Protocol::multicast, PredictorKind::sp},
    };
    for (const auto &[proto, kind] : protos) {
        ProtoHarness h(sized(cores, x, y, fmt, proto, kind));
        h.access(0, 0x10000, true);
        AccessOutcome out = h.access(cores - 1, 0x10000, false);
        EXPECT_TRUE(out.communicating) << toString(proto);
        // The modified copy is always fetched from its exact owner,
        // whatever the sharer encoding.
        EXPECT_EQ(out.servicedBy, CoreSet{0}) << toString(proto);
        if (cores > 2) {
            AccessOutcome w = h.access(1, 0x10000, true);
            EXPECT_TRUE(w.communicating) << toString(proto);
        }
        h.sys->checkCoherence();
        h.sys->checkDirectory();
    }
}

TEST_P(MeshSizes, WorkloadRunsEndToEnd)
{
    const auto [cores, x, y, fmt] = GetParam();
    if (cores > 64)
        GTEST_SKIP() << "256-core end-to-end runs live in the bench "
                        "suite (fuzz_protocol --cores 256)";
    ExperimentConfig cfg;
    cfg.scale = 0.2;
    cfg.config.protocol = Protocol::predicted;
    cfg.config.predictor = PredictorKind::sp;
    cfg.config.numCores = cores;
    cfg.config.meshX = x;
    cfg.config.meshY = y;
    cfg.config.sharerFormat = fmt;
    cfg.config.l2Bytes = 128 * 1024;
    cfg.config.l1Bytes = 4 * 1024;
    ExperimentResult r = runExperiment("ocean", cfg);
    EXPECT_GT(r.run.ticks, 0u);
    EXPECT_GT(r.run.mem.communicatingMisses.value(), 0u);
    EXPECT_GT(r.run.mem.predictionsSufficient.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MeshSizes,
    ::testing::Values(
        SizeParam{4, 2, 2, SharerFormat::full},
        SizeParam{8, 4, 2, SharerFormat::full},
        SizeParam{16, 4, 4, SharerFormat::full},
        SizeParam{16, 4, 4, SharerFormat::coarse},
        SizeParam{16, 4, 4, SharerFormat::limited},
        SizeParam{32, 8, 4, SharerFormat::full},
        SizeParam{64, 8, 8, SharerFormat::full},
        SizeParam{64, 8, 8, SharerFormat::coarse},
        SizeParam{64, 8, 8, SharerFormat::limited},
        SizeParam{64, 16, 4, SharerFormat::full},
        SizeParam{256, 16, 16, SharerFormat::full},
        SizeParam{256, 16, 16, SharerFormat::coarse},
        SizeParam{256, 16, 16, SharerFormat::limited}),
    [](const auto &info) {
        std::string name = "c";
        name += std::to_string(info.param.cores);
        name += "x";
        name += std::to_string(info.param.x);
        name += "_";
        name += toString(info.param.fmt);
        return name;
    });

TEST(MeshSizes, SignatureWidthFollowsCoreCount)
{
    // A 64-core system's signatures span all 64 bits.
    Config cfg = sized(64, 8, 8, SharerFormat::full,
                       Protocol::predicted, PredictorKind::sp);
    ProtoHarness h(cfg);
    h.access(63, 0x10000, true);
    AccessOutcome out = h.access(0, 0x10000, false);
    EXPECT_EQ(out.servicedBy, CoreSet{63});
}

TEST(MeshSizes, KilocoreHarnessScenario)
{
    // The compile-time ceiling itself: 1024 cores on a 32x32 mesh.
    Config cfg = sized(1024, 32, 32, SharerFormat::coarse);
    ProtoHarness h(cfg);
    h.access(0, 0x10000, true);
    AccessOutcome out = h.access(1023, 0x10000, false);
    EXPECT_TRUE(out.communicating);
    EXPECT_EQ(out.servicedBy, CoreSet{0});
    h.sys->checkCoherence();
    h.sys->checkDirectory();
}
