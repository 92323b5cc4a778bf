/**
 * @file
 * Unit tests for SP-prediction's Table 3 behaviours: d=0 warm-up,
 * d=1 last signature, d=2 stable intersection, stride-2 patterns,
 * lock-holder unions, confidence-driven recovery and noisy-instance
 * filtering.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "core/sp_predictor.hh"

using namespace spp;

namespace {

struct SpFixture : ::testing::Test
{
    Config cfg;
    SpPredictor pred{cfg, 16};

    PredictionQuery
    query(CoreId core, bool write = false)
    {
        PredictionQuery q;
        q.core = core;
        q.line = 0x1000;
        q.macroBlock = 0x10;
        q.pc = 0x40;
        q.isWrite = write;
        return q;
    }

    void
    syncPoint(CoreId core, std::uint64_t sid,
              SyncType type = SyncType::barrier,
              CoreId prev_holder = invalidCore)
    {
        SyncPointInfo info;
        info.type = type;
        info.staticId = sid;
        info.prevHolder = prev_holder;
        pred.onSyncPoint(core, info);
    }

    /** Run one epoch instance communicating with @p who. */
    void
    epochWith(CoreId core, std::uint64_t sid, const CoreSet &who,
              unsigned misses = 20)
    {
        syncPoint(core, sid);
        for (unsigned i = 0; i < misses; ++i) {
            pred.trainResponse(query(core), who);
            pred.feedback(core, Prediction{}, true, false);
        }
    }
};

} // namespace

TEST_F(SpFixture, NoHistoryNoPrediction)
{
    syncPoint(0, 1);
    EXPECT_FALSE(pred.predict(query(0)).valid());
}

TEST_F(SpFixture, WarmupExtraction)
{
    syncPoint(0, 1);
    // 30 misses of warm-up, all towards core 7.
    for (unsigned i = 0; i < cfg.warmupMisses; ++i) {
        pred.trainResponse(query(0), CoreSet{7});
        pred.feedback(0, Prediction{}, true, false);
    }
    Prediction p = pred.predict(query(0));
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.targets, CoreSet{7});
    EXPECT_EQ(p.source, PredSource::warmup);
    EXPECT_EQ(pred.stats().warmupExtractions.value(), 1u);
}

TEST_F(SpFixture, HistoryDepthOne)
{
    epochWith(0, 1, CoreSet{3});
    syncPoint(0, 1); // Second instance of the same static epoch.
    Prediction p = pred.predict(query(0));
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.targets, CoreSet{3});
    EXPECT_EQ(p.source, PredSource::history);
}

TEST_F(SpFixture, StableIntersection)
{
    // Two instances share core 3; extras differ. 20 misses each:
    // both targets exceed the 10% threshold each instance.
    epochWith(0, 1, CoreSet{3, 4});
    epochWith(0, 1, CoreSet{3, 5});
    syncPoint(0, 1);
    Prediction p = pred.predict(query(0));
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.targets, CoreSet{3}); // Last *stable* hot set.
}

TEST_F(SpFixture, StridePattern)
{
    epochWith(0, 1, CoreSet{3});
    epochWith(0, 1, CoreSet{9});
    epochWith(0, 1, CoreSet{3}); // A B A -> stride 2 detected.
    syncPoint(0, 1);
    Prediction p = pred.predict(query(0));
    ASSERT_TRUE(p.valid());
    // Next instance should be B = {9}.
    EXPECT_EQ(p.targets, CoreSet{9});
    EXPECT_EQ(p.source, PredSource::pattern);
    EXPECT_GE(pred.stats().patternHits.value(), 1u);
}

TEST_F(SpFixture, PatternsCanBeDisabled)
{
    cfg.enablePatterns = false;
    SpPredictor p2(cfg, 16);
    auto epoch = [&](const CoreSet &who) {
        SyncPointInfo info;
        info.type = SyncType::barrier;
        info.staticId = 1;
        p2.onSyncPoint(0, info);
        for (unsigned i = 0; i < 20; ++i) {
            p2.trainResponse(query(0), who);
            p2.feedback(0, Prediction{}, true, false);
        }
    };
    epoch(CoreSet{3});
    epoch(CoreSet{9});
    epoch(CoreSet{3});
    SyncPointInfo info;
    info.type = SyncType::barrier;
    info.staticId = 1;
    p2.onSyncPoint(0, info);
    Prediction p = p2.predict(query(0));
    ASSERT_TRUE(p.valid());
    EXPECT_NE(p.source, PredSource::pattern);
}

TEST_F(SpFixture, NoisyInstanceStoresNoSignature)
{
    // Fewer communicating misses than the noise threshold.
    epochWith(0, 1, CoreSet{3}, cfg.noiseMisses - 1);
    syncPoint(0, 1);
    EXPECT_FALSE(pred.predict(query(0)).valid());
    EXPECT_GE(pred.stats().noisyEpochs.value(), 1u);
}

TEST_F(SpFixture, LockHolderPrediction)
{
    // Core 2 acquires a lock previously released by core 9.
    syncPoint(2, 0xbeef, SyncType::lock, /*prev_holder=*/9);
    Prediction p = pred.predict(query(2));
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.targets, CoreSet{9});
    EXPECT_EQ(p.source, PredSource::lock);
    EXPECT_GE(pred.stats().lockEpochs.value(), 1u);
}

TEST_F(SpFixture, LockHistoryIsSharedAcrossCores)
{
    syncPoint(2, 0xbeef, SyncType::lock, 9);
    // A different core acquiring the same lock sees the sequence of
    // previous holders (9, then 2).
    syncPoint(5, 0xbeef, SyncType::lock, 2);
    Prediction p = pred.predict(query(5));
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.targets, (CoreSet{2, 9}));
}

TEST_F(SpFixture, SelfExcludedFromPrediction)
{
    epochWith(3, 1, CoreSet{3, 8}); // Own ID in the signature.
    syncPoint(3, 1);
    Prediction p = pred.predict(query(3));
    ASSERT_TRUE(p.valid());
    EXPECT_FALSE(p.targets.test(3));
    EXPECT_TRUE(p.targets.test(8));
}

TEST_F(SpFixture, ConfidenceRecovery)
{
    epochWith(0, 1, CoreSet{3});
    syncPoint(0, 1);
    Prediction p = pred.predict(query(0));
    ASSERT_TRUE(p.valid());

    // The communication has moved to core 12: feed wrong-prediction
    // feedback until confidence (4 bits -> 15) exhausts, while the
    // counters record the new target.
    for (unsigned i = 0; i < 16; ++i) {
        pred.trainResponse(query(0), CoreSet{12});
        pred.feedback(0, p, true, /*sufficient=*/false);
    }
    Prediction after = pred.predict(query(0));
    ASSERT_TRUE(after.valid());
    EXPECT_EQ(after.targets, CoreSet{12});
    EXPECT_EQ(after.source, PredSource::recovery);
    EXPECT_EQ(pred.stats().recoveries.value(), 1u);
}

TEST_F(SpFixture, CorrectFeedbackRestoresConfidence)
{
    epochWith(0, 1, CoreSet{3});
    syncPoint(0, 1);
    Prediction p = pred.predict(query(0));
    // Alternate wrong and right: confidence never empties.
    for (unsigned i = 0; i < 40; ++i) {
        pred.trainResponse(query(0), CoreSet{3});
        pred.feedback(0, p, true, i % 2 == 0);
    }
    EXPECT_EQ(pred.stats().recoveries.value(), 0u);
}

TEST_F(SpFixture, RecoveryCanBeDisabled)
{
    cfg.enableRecovery = false;
    SpPredictor p2(cfg, 16);
    SyncPointInfo info;
    info.type = SyncType::barrier;
    info.staticId = 1;
    p2.onSyncPoint(0, info);
    for (unsigned i = 0; i < 20; ++i) {
        p2.trainResponse(query(0), CoreSet{3});
        p2.feedback(0, Prediction{}, true, false);
    }
    p2.onSyncPoint(0, info);
    Prediction p = p2.predict(query(0));
    for (unsigned i = 0; i < 40; ++i) {
        p2.trainResponse(query(0), CoreSet{12});
        p2.feedback(0, p, true, false);
    }
    EXPECT_EQ(p2.stats().recoveries.value(), 0u);
}

TEST_F(SpFixture, EpochsTrackedPerCore)
{
    epochWith(0, 1, CoreSet{3});
    epochWith(1, 1, CoreSet{9});
    syncPoint(0, 1);
    syncPoint(1, 1);
    EXPECT_EQ(pred.predict(query(0)).targets, CoreSet{3});
    EXPECT_EQ(pred.predict(query(1)).targets, CoreSet{9});
}

TEST_F(SpFixture, StorageAndAccessesReported)
{
    epochWith(0, 1, CoreSet{3});
    syncPoint(0, 1);
    EXPECT_GT(pred.storageBits(), 0u);
    EXPECT_GT(pred.tableAccesses(), 0u);
}

// Section 5.4: the fixed (table-independent) predictor state is 17
// bytes per core on a 16-core machine — 16 one-byte communication
// counters plus the core's one-byte prediction-register slice.
TEST_F(SpFixture, FixedStorageMatchesPaper)
{
    // Fresh predictor, empty SP-table: only the fixed cost remains.
    const std::size_t per_core_bits = 16 * 8 + 8;
    EXPECT_EQ(per_core_bits, 136u); // = 17 bytes.
    EXPECT_EQ(pred.storageBits(), 16 * per_core_bits);

    // Table entries add on top of the fixed cost.
    epochWith(0, 1, CoreSet{3});
    syncPoint(0, 1);
    EXPECT_GT(pred.storageBits(), 16 * per_core_bits);
}
