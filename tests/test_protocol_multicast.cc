/**
 * @file
 * Multicast-snooping protocol tests: predicted-mask snoops, the
 * memory-side verification directory (checked against the caches
 * after every scenario), insufficient-mask fallback, and bandwidth
 * savings over full broadcast.
 */

#include <gtest/gtest.h>

#include "coherence/snoop_protocol.hh"
#include "analysis/experiment.hh"
#include "harness.hh"

using namespace spp;
using namespace spp::test;

namespace {

Config
mcConfig()
{
    Config cfg = ProtoHarness::smallConfig();
    cfg.protocol = Protocol::multicast;
    cfg.predictor = PredictorKind::sp;
    return cfg;
}

MulticastMemSys *
mc(ProtoHarness &h)
{
    return dynamic_cast<MulticastMemSys *>(h.sys.get());
}

/** Prime core @p core's SP register towards @p target. */
void
prime(ProtoHarness &h, CoreId core, CoreId target)
{
    SyncPointInfo info;
    info.type = SyncType::barrier;
    info.staticId = 0x80;
    PredictionQuery q;
    q.core = core;
    h.sp->onSyncPoint(core, info);
    for (int i = 0; i < 20; ++i) {
        h.sp->trainResponse(q, CoreSet::single(target));
        h.sp->feedback(core, Prediction{}, true, false);
    }
    h.sp->onSyncPoint(core, info);
}

} // namespace

TEST(Multicast, ColdReadFromMemory)
{
    ProtoHarness h(mcConfig());
    AccessOutcome out = h.access(0, 0x10000, false);
    EXPECT_TRUE(out.offChip);
    EXPECT_FALSE(out.communicating);
    EXPECT_EQ(h.l2State(0, 0x10000), Mesif::exclusive);
    EXPECT_TRUE(h.sys->drained());
    h.sys->checkCoherence();
    h.sys->checkDirectory();
}

TEST(Multicast, PredictedOwnerSnoopedDirectly)
{
    ProtoHarness h(mcConfig());
    h.access(5, 0x10000, true);
    prime(h, 1, 5);
    AccessOutcome out = h.access(1, 0x10000, false);
    EXPECT_TRUE(out.communicating);
    EXPECT_EQ(out.servicedBy, CoreSet{5});
    EXPECT_TRUE(out.predSufficient);
    EXPECT_EQ(mc(h)->insufficientMasks(), 0u);
    h.sys->checkCoherence();
    h.sys->checkDirectory();
}

TEST(Multicast, WrongMaskFallsBackViaHome)
{
    ProtoHarness h(mcConfig());
    h.access(5, 0x10000, true);
    prime(h, 1, 9); // Snoops only core 9; the home snoops core 5.
    AccessOutcome out = h.access(1, 0x10000, false);
    EXPECT_TRUE(out.communicating);
    EXPECT_EQ(out.servicedBy, CoreSet{5});
    EXPECT_FALSE(out.predSufficient);
    EXPECT_EQ(mc(h)->insufficientMasks(), 1u);
    h.sys->checkCoherence();
    h.sys->checkDirectory();
}

TEST(Multicast, WriteInvalidatesBeyondMask)
{
    ProtoHarness h(mcConfig());
    h.access(5, 0x10000, false);
    h.access(6, 0x10000, false);
    h.access(7, 0x10000, false);
    prime(h, 1, 5); // Mask covers one of three sharers.
    AccessOutcome out = h.access(1, 0x10000, true);
    EXPECT_TRUE(out.communicating);
    for (CoreId c : {5u, 6u, 7u})
        EXPECT_EQ(h.l2State(c, 0x10000), Mesif::invalid);
    EXPECT_EQ(h.l2State(1, 0x10000), Mesif::modified);
    EXPECT_FALSE(out.predSufficient);
    h.sys->checkCoherence();
    h.sys->checkDirectory();
}

TEST(Multicast, EmptyPredictionDegradesToBroadcast)
{
    ProtoHarness h(mcConfig());
    h.access(5, 0x10000, true);
    // No priming: full broadcast fallback still services the miss.
    AccessOutcome out = h.access(1, 0x10000, false);
    EXPECT_TRUE(out.communicating);
    EXPECT_EQ(out.servicedBy, CoreSet{5});
    h.sys->checkCoherence();
    h.sys->checkDirectory();
}

TEST(Multicast, SavesBandwidthVsBroadcast)
{
    std::uint64_t bc_bytes = 0, mc_bytes = 0;
    {
        Config cfg = ProtoHarness::smallConfig();
        cfg.protocol = Protocol::broadcast;
        ProtoHarness h(cfg);
        h.access(5, 0x10000, true);
        h.access(1, 0x10000, false);
        bc_bytes = h.mesh->stats().flitBytes.value();
    }
    {
        ProtoHarness h(mcConfig());
        h.access(5, 0x10000, true);
        prime(h, 1, 5);
        h.access(1, 0x10000, false);
        mc_bytes = h.mesh->stats().flitBytes.value();
    }
    // The first (cold, unpredicted) write falls back to a full
    // broadcast in both schemes; the predicted read is where the
    // multicast saves: ~14 fewer request+response pairs.
    EXPECT_LT(mc_bytes, 3 * bc_bytes / 4);
}

TEST(Multicast, ConcurrentWritersStayCoherent)
{
    ProtoHarness h(mcConfig());
    h.access(5, 0x10000, true);
    for (CoreId c = 0; c < 8; ++c)
        if (c != 5)
            prime(h, c, 5);
    std::vector<std::tuple<CoreId, Addr, bool>> reqs;
    for (CoreId c = 0; c < 8; ++c)
        reqs.emplace_back(c, Addr{0x10000}, true);
    h.accessAll(reqs);
    unsigned owners = 0;
    for (CoreId c = 0; c < 16; ++c)
        owners += h.l2State(c, 0x10000) == Mesif::modified;
    EXPECT_EQ(owners, 1u);
    EXPECT_TRUE(h.sys->drained());
    h.sys->checkCoherence();
    h.sys->checkDirectory();
}

TEST(Multicast, WorkloadEndToEnd)
{
    ExperimentConfig cfg;
    cfg.config.protocol = Protocol::multicast;
    cfg.config.predictor = PredictorKind::sp;
    cfg.scale = 0.25;
    cfg.checkCoherence = true; // Caches and verification directory.
    ExperimentResult r = runExperiment("ocean", cfg);
    EXPECT_GT(r.run.ticks, 0u);
    EXPECT_GT(r.run.mem.communicatingMisses.value(), 0u);
    EXPECT_GT(r.run.mem.predictionsAttempted.value(), 0u);
}

TEST(Multicast, WorkloadBandwidthBetweenDirAndBroadcast)
{
    auto run = [](Protocol proto, PredictorKind kind) {
        ExperimentConfig cfg;
        cfg.config.protocol = proto;
        cfg.config.predictor = kind;
        cfg.scale = 0.5;
        return runExperiment("streamcluster", cfg);
    };
    ExperimentResult dir = run(Protocol::directory,
                               PredictorKind::none);
    ExperimentResult bc = run(Protocol::broadcast,
                              PredictorKind::none);
    ExperimentResult mcast = run(Protocol::multicast,
                                 PredictorKind::sp);
    EXPECT_LT(mcast.run.noc.flitBytes.value(),
              bc.run.noc.flitBytes.value());
    EXPECT_GT(mcast.run.noc.flitBytes.value(),
              dir.run.noc.flitBytes.value());
    // And it keeps snooping's latency advantage.
    EXPECT_LT(mcast.avgMissLatency(), dir.avgMissLatency());
}
