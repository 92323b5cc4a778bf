/**
 * @file
 * Tests for the extension features beyond the paper's core design:
 * the region sharing filter (Section 5.3's bandwidth fix), the
 * bounded hot-set size (Section 5.2's power-envelope policy) and
 * profile-guided seeding (Section 5.2's ideal-gap discussion).
 */

#include <gtest/gtest.h>

#include "analysis/experiment.hh"
#include "analysis/profile.hh"
#include "core/comm_counters.hh"
#include "harness.hh"
#include "predict/sharing_filter.hh"

using namespace spp;
using namespace spp::test;

// --- SharingFilter unit behaviour ---

TEST(SharingFilter, BlocksUntilMarked)
{
    SharingFilter f(16, 4096);
    EXPECT_FALSE(f.allowPrediction(0, 0x12345));
    f.markShared(0, 0x12345);
    EXPECT_TRUE(f.allowPrediction(0, 0x12345));
    // Same 4 KB region, different line.
    EXPECT_TRUE(f.allowPrediction(0, 0x12000));
    // Different region / different core remain blocked.
    EXPECT_FALSE(f.allowPrediction(0, 0x22345));
    EXPECT_FALSE(f.allowPrediction(1, 0x12345));
    EXPECT_EQ(f.sharedRegions(0), 1u);
    EXPECT_GT(f.storageBits(), 0u);
}

// --- Filter wired into the memory system ---

TEST(SharingFilterSystem, SuppressesPrivatePredictions)
{
    Config cfg = ProtoHarness::smallConfig();
    cfg.protocol = Protocol::predicted;
    cfg.predictor = PredictorKind::uni;
    cfg.enableSharingFilter = true;
    ProtoHarness h(cfg);

    // Train UNI so it would predict on everything. The first miss
    // in the region is itself suppressed (region unknown), then the
    // filter learns and the 2-bit counters reach threshold.
    h.access(9, 0x50000, true);
    h.access(9, 0x50040, true);
    h.access(9, 0x50080, true);
    h.access(0, 0x50000, false);
    h.access(0, 0x50040, false);
    h.access(0, 0x50080, false);
    ASSERT_GT(h.sys->stats().predictionsAttempted.value(), 0u);
    const auto attempted_before =
        h.sys->stats().predictionsAttempted.value();

    // Cold private misses in an unshared region: suppressed.
    for (int i = 0; i < 8; ++i)
        h.access(0, 0x900000 + i * 64, false);
    EXPECT_EQ(h.sys->stats().predictionsAttempted.value(),
              attempted_before);
    EXPECT_GE(h.sys->stats().predictionsSuppressed.value(), 8u);
}

TEST(SharingFilterSystem, LearnsFromExternalRequests)
{
    Config cfg = ProtoHarness::smallConfig();
    cfg.protocol = Protocol::predicted;
    cfg.predictor = PredictorKind::uni;
    cfg.enableSharingFilter = true;
    ProtoHarness h(cfg);

    h.access(3, 0x70000, false); // Core 3 caches the line.
    h.access(9, 0x70000, true);  // Core 9's write invalidates core 3.
    // Core 3 observed an external request: its filter marks the
    // region shared.
    ASSERT_NE(h.sys->sharingFilter(), nullptr);
    EXPECT_TRUE(h.sys->sharingFilter()->allowPrediction(3, 0x70000));
}

TEST(SharingFilterSystem, CutsWastedBandwidthOnWorkload)
{
    auto run = [](bool filter) {
        ExperimentConfig cfg;
        cfg.config.protocol = Protocol::predicted;
        cfg.config.predictor = PredictorKind::sp;
        cfg.scale = 0.5;
        cfg.config.enableSharingFilter = filter;
        return runExperiment("radix", cfg);
    };
    ExperimentResult off = run(false);
    ExperimentResult on = run(true);
    EXPECT_LT(on.run.mem.predWasteBytesNonComm.value(),
              off.run.mem.predWasteBytesNonComm.value());
    EXPECT_GT(on.run.mem.predictionsSuppressed.value(), 0u);
    // Accuracy is not destroyed by the filter.
    EXPECT_GT(on.predictionAccuracy(),
              0.5 * off.predictionAccuracy());
}

// --- Bounded hot sets ---

TEST(HotSetCap, KeepsHottestMembers)
{
    CommCounters c;
    for (int i = 0; i < 30; ++i)
        c.record(CoreSet{1});
    for (int i = 0; i < 20; ++i)
        c.record(CoreSet{2});
    for (int i = 0; i < 10; ++i)
        c.record(CoreSet{3});
    EXPECT_EQ(c.hotSet(0.05), (CoreSet{1, 2, 3}));
    EXPECT_EQ(c.hotSet(0.05, 2), (CoreSet{1, 2}));
    EXPECT_EQ(c.hotSet(0.05, 1), CoreSet{1});
}

TEST(HotSetCap, BoundsPredictedSetSize)
{
    auto run = [](unsigned cap) {
        ExperimentConfig cfg;
        cfg.config.protocol = Protocol::predicted;
        cfg.config.predictor = PredictorKind::sp;
        cfg.scale = 0.5;
        cfg.config.maxHotSetSize = cap;
        // facesim: no locks, so every predicted set comes from a
        // (capped) hot-set extraction (lock-holder unions are
        // intentionally exempt from the cap).
        return runExperiment("facesim", cfg);
    };
    ExperimentResult unbounded = run(0);
    ExperimentResult capped = run(1);
    EXPECT_LE(capped.run.mem.predictedTargets.mean(), 1.0 + 1e-9);
    EXPECT_LT(capped.run.mem.predictedTargets.mean(),
              unbounded.run.mem.predictedTargets.mean());
}

// --- Profile seeding ---

TEST(Profile, BuildFromTrace)
{
    ExperimentConfig cfg;
    cfg.scale = 0.5;
    cfg.collectTrace = true;
    ExperimentResult r = runExperiment("ocean", cfg);
    auto profile = buildProfile(*r.trace, 0.10, 8);
    EXPECT_GT(profile.size(), 0u);
    for (const auto &p : profile) {
        EXPECT_LT(p.core, 16u);
        EXPECT_FALSE(p.signature.empty());
    }
}

TEST(Profile, SeedingPredictsFirstInstances)
{
    // Profile a directory run, then seed a fresh SP run: the seeded
    // run predicts at least as many misses correctly as the unseeded
    // one (first dynamic instances are no longer blind).
    ExperimentConfig trace_cfg;
    trace_cfg.scale = 0.5;
    trace_cfg.collectTrace = true;
    ExperimentResult traced = runExperiment("fft", trace_cfg);
    auto profile = buildProfile(*traced.trace, 0.10, 8);
    ASSERT_GT(profile.size(), 0u);

    auto run = [&](bool seed) {
        ExperimentConfig cfg;
        cfg.config.protocol = Protocol::predicted;
        cfg.config.predictor = PredictorKind::sp;
        cfg.scale = 0.5;
        if (seed) {
            cfg.prepare = [&profile](CmpSystem &sys) {
                ASSERT_NE(sys.spPredictor(), nullptr);
                applyProfile(*sys.spPredictor(), profile);
            };
        }
        return runExperiment("fft", cfg);
    };
    ExperimentResult cold = run(false);
    ExperimentResult seeded = run(true);
    EXPECT_GT(seeded.run.mem.predictionsSufficient.value(),
              cold.run.mem.predictionsSufficient.value());
}

TEST(Profile, SeedApiStoresSignatures)
{
    Config cfg;
    SpPredictor pred(cfg, 16);
    pred.seedSignature(0, 0x42, CoreSet{3, 7});
    const SpEntry *e = pred.table().entry(0, 0x42);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->sigs[0], (CoreSet{3, 7}));
    pred.seedLockHolder(0xbeef, 5);
    EXPECT_EQ(pred.table().lockHolders(0xbeef), CoreSet{5});
}

// --- MESI (no F-state) ablation ---

TEST(MesiMode, CleanSharingGoesToMemory)
{
    Config cfg = ProtoHarness::smallConfig();
    cfg.enableFState = false;
    ProtoHarness h(cfg);
    h.access(0, 0x10000, false); // E at 0.
    // First reader still gets a cache-to-cache transfer (E owner).
    AccessOutcome first = h.access(1, 0x10000, false);
    EXPECT_TRUE(first.communicating);
    EXPECT_EQ(h.l2State(1, 0x10000), Mesif::shared);
    EXPECT_EQ(h.l2State(0, 0x10000), Mesif::shared);
    // Second reader: only S copies exist -> memory must service.
    AccessOutcome second = h.access(2, 0x10000, false);
    EXPECT_TRUE(second.offChip);
    EXPECT_FALSE(second.communicating);
    EXPECT_EQ(h.l2State(2, 0x10000), Mesif::shared);
    h.sys->checkCoherence();
    h.dir()->checkDirectory();
}

TEST(MesiMode, MesifKeepsForwarding)
{
    ProtoHarness h; // Default MESIF.
    h.access(0, 0x10000, false);
    h.access(1, 0x10000, false);
    AccessOutcome second = h.access(2, 0x10000, false);
    EXPECT_TRUE(second.communicating); // F holder forwards.
    EXPECT_FALSE(second.offChip);
}

TEST(MesiMode, DirtyForwardingUnaffected)
{
    Config cfg = ProtoHarness::smallConfig();
    cfg.enableFState = false;
    ProtoHarness h(cfg);
    h.access(0, 0x10000, true); // M at 0.
    AccessOutcome out = h.access(1, 0x10000, false);
    EXPECT_TRUE(out.communicating); // M always forwards.
    h.sys->checkCoherence();
}

TEST(MesiMode, WorkloadsStayCoherent)
{
    ExperimentConfig cfg;
    cfg.scale = 0.25;
    cfg.config.protocol = Protocol::predicted;
    cfg.config.predictor = PredictorKind::sp;
    cfg.config.enableFState = false;
    ExperimentResult r = runExperiment("ocean", cfg);
    EXPECT_GT(r.run.ticks, 0u);
    EXPECT_GT(r.run.mem.communicatingMisses.value(), 0u);
}

TEST(MesiMode, FStateLowersMissLatencyOnSharedReads)
{
    auto run = [](bool f_state) {
        ExperimentConfig cfg;
        cfg.scale = 0.5;
        cfg.config.enableFState = f_state;
        // lu: one produced block read by all fifteen consumers --
        // only the first read can come from the (E/M) producer; the
        // rest need the F chain.
        return runExperiment("lu", cfg);
    };
    ExperimentResult mesif = run(true);
    ExperimentResult mesi = run(false);
    EXPECT_LT(mesif.avgMissLatency(), mesi.avgMissLatency());
    EXPECT_GT(mesif.commMissFraction(), mesi.commMissFraction());
}
