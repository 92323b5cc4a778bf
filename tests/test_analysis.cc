/**
 * @file
 * Unit tests for the analysis layer: trace collection, locality
 * curves, hot-set distribution, pattern classification, epoch stats,
 * the energy model and the report formatter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/energy.hh"
#include "analysis/epoch_stats.hh"
#include "analysis/experiment.hh"
#include "analysis/locality.hh"
#include "analysis/patterns.hh"
#include "analysis/report.hh"

using namespace spp;

namespace {

/** Fabricate an epoch with the given per-target volumes. */
EpochRecord
makeEpoch(CoreId core, std::uint64_t sid, std::uint64_t dyn,
          std::initializer_list<std::pair<CoreId, std::uint32_t>> vols,
          SyncType type = SyncType::barrier)
{
    EpochRecord e(16);
    e.core = core;
    e.staticId = sid;
    e.dynamicId = dyn;
    e.beginType = type;
    for (auto [c, v] : vols) {
        e.volume[c] = v;
        e.commMisses += v;
        e.misses += v;
    }
    return e;
}

} // namespace

// --- EpochRecord ---

TEST(EpochRecord, HotSetThreshold)
{
    EpochRecord e = makeEpoch(0, 1, 0, {{5, 90}, {3, 9}, {7, 1}});
    EXPECT_EQ(e.hotSet(0.10), CoreSet{5});
    EXPECT_EQ(e.hotSet(0.05), (CoreSet{3, 5}));
    EXPECT_EQ(e.totalVolume(), 100u);
}

// --- Locality curves ---

TEST(Locality, CurveShape)
{
    CommTrace trace(16);
    // Synthesize via direct structures is awkward; use classify on a
    // real tiny run instead.
    ExperimentConfig cfg;
    cfg.scale = 0.25;
    cfg.collectTrace = true;
    ExperimentResult r = runExperiment("ocean", cfg);
    const LocalityCurve epoch = epochLocality(*r.trace);
    const LocalityCurve whole = wholeRunLocality(*r.trace);
    ASSERT_EQ(epoch.size(), 16u);
    // Curves are monotonically non-decreasing and end at 1.
    for (unsigned k = 1; k < 16; ++k) {
        EXPECT_GE(epoch[k] + 1e-9, epoch[k - 1]);
        EXPECT_GE(whole[k] + 1e-9, whole[k - 1]);
    }
    EXPECT_NEAR(epoch[15], 1.0, 1e-6);
    EXPECT_NEAR(whole[15], 1.0, 1e-6);
    // Sync-epoch granularity captures locality at least as well as
    // the whole-run view (the paper's Figure 4 claim).
    EXPECT_GE(epoch[0] + 1e-9, whole[0]);
    EXPECT_GE(epoch[1] + 1e-9, whole[1]);
}

TEST(Locality, HotSetDistributionSumsToOne)
{
    ExperimentConfig cfg;
    cfg.scale = 0.25;
    cfg.collectTrace = true;
    ExperimentResult r = runExperiment("fmm", cfg);
    const auto dist = hotSetSizeDistribution(*r.trace, 0.10);
    double sum = 0;
    for (double d : dist)
        sum += d;
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

// --- Pattern classification ---

TEST(Patterns, ClassifyStable)
{
    unsigned stride = 0;
    std::vector<CoreSet> seq(5, CoreSet{3});
    EXPECT_EQ(classifySequence(seq, stride), HotSetPattern::stable);
    EXPECT_EQ(stride, 1u);
}

TEST(Patterns, ClassifyPhaseChange)
{
    unsigned stride = 0;
    std::vector<CoreSet> seq{CoreSet{3}, CoreSet{3}, CoreSet{3},
                             CoreSet{8}, CoreSet{8}};
    EXPECT_EQ(classifySequence(seq, stride),
              HotSetPattern::phaseChange);
}

TEST(Patterns, ClassifyStride2)
{
    unsigned stride = 0;
    std::vector<CoreSet> seq{CoreSet{1}, CoreSet{2}, CoreSet{1},
                             CoreSet{2}, CoreSet{1}, CoreSet{2}};
    EXPECT_EQ(classifySequence(seq, stride), HotSetPattern::stride);
    EXPECT_EQ(stride, 2u);
}

TEST(Patterns, ClassifyStride3)
{
    unsigned stride = 0;
    std::vector<CoreSet> seq{CoreSet{1}, CoreSet{2}, CoreSet{3},
                             CoreSet{1}, CoreSet{2}, CoreSet{3}};
    EXPECT_EQ(classifySequence(seq, stride), HotSetPattern::stride);
    EXPECT_EQ(stride, 3u);
}

TEST(Patterns, ClassifyMixed)
{
    unsigned stride = 0;
    std::vector<CoreSet> seq{CoreSet{1, 4}, CoreSet{1, 7},
                             CoreSet{1, 2}, CoreSet{1, 9},
                             CoreSet{1, 5}};
    EXPECT_EQ(classifySequence(seq, stride), HotSetPattern::mixed);
}

TEST(Patterns, ClassifyRandom)
{
    unsigned stride = 0;
    std::vector<CoreSet> seq{CoreSet{1}, CoreSet{7}, CoreSet{2},
                             CoreSet{9}, CoreSet{5}};
    EXPECT_EQ(classifySequence(seq, stride), HotSetPattern::random);
}

TEST(Patterns, TooFewInstances)
{
    unsigned stride = 0;
    std::vector<CoreSet> seq{CoreSet{1}, CoreSet{1}};
    EXPECT_EQ(classifySequence(seq, stride), HotSetPattern::tooFew);
}

TEST(Patterns, StreamclusterShowsStride2)
{
    ExperimentConfig cfg;
    cfg.scale = 0.5;
    cfg.collectTrace = true;
    ExperimentResult r = runExperiment("streamcluster", cfg);
    auto infos = classifyEpochPatterns(*r.trace, 0.10, 8);
    auto hist = patternHistogram(infos);
    EXPECT_GT(hist[HotSetPattern::stride], 0u);
}

TEST(Patterns, DedupShowsStableEpochs)
{
    ExperimentConfig cfg;
    cfg.scale = 0.5;
    cfg.collectTrace = true;
    ExperimentResult r = runExperiment("dedup", cfg);
    auto infos = classifyEpochPatterns(*r.trace, 0.10, 8);
    auto hist = patternHistogram(infos);
    EXPECT_GT(hist[HotSetPattern::stable], 0u);
}

TEST(Patterns, OceanShowsMixedStencilEpochs)
{
    // Ocean's hot set is the constant {up, down} pair plus varying
    // barrier-noise extras: the "mixed" class (Fig. 6e).
    ExperimentConfig cfg;
    cfg.scale = 0.5;
    cfg.collectTrace = true;
    ExperimentResult r = runExperiment("ocean", cfg);
    auto infos = classifyEpochPatterns(*r.trace, 0.10, 8);
    auto hist = patternHistogram(infos);
    EXPECT_GT(hist[HotSetPattern::mixed] +
                  hist[HotSetPattern::stable],
              0u);
}

// --- Epoch stats ---

TEST(EpochStats, CountsStaticSites)
{
    ExperimentConfig cfg;
    cfg.scale = 0.25;
    cfg.collectTrace = true;
    ExperimentResult r = runExperiment("radiosity", cfg);
    const EpochStats s = computeEpochStats(*r.trace);
    EXPECT_GT(s.staticCriticalSections, 0u);
    EXPECT_GT(s.staticSyncEpochs, 0u);
    EXPECT_GT(s.dynEpochsPerCore, 10.0);
}

// --- Energy model ---

TEST(Energy, ProportionalToTraffic)
{
    EnergyModel m;
    NocStats a, b;
    a.byteHops += 100;
    a.byteRouters += 150;
    b.byteHops += 200;
    b.byteRouters += 300;
    EXPECT_DOUBLE_EQ(m.total(b, 0), 2.0 * m.total(a, 0));
    EXPECT_GT(m.total(a, 10), m.total(a, 0));
}

// --- Report formatting ---

TEST(Report, TableAlignsAndRenders)
{
    Table t({"name", "value"});
    t.cell("foo").cell(3.14159, 2).endRow();
    t.cell("barbaz").cell(std::uint64_t{42}).endRow();
    const std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("3.14"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("------"), std::string::npos);
}

// --- Experiment harness ---

TEST(Experiment, UnknownWorkloadDies)
{
    ExperimentConfig cfg;
    EXPECT_DEATH({ runExperiment("not-a-workload", cfg); },
                 "unknown workload");
}

TEST(Experiment, DeterministicResults)
{
    ExperimentConfig cfg;
    cfg.scale = 0.25;
    ExperimentResult a = runExperiment("vips", cfg);
    ExperimentResult b = runExperiment("vips", cfg);
    EXPECT_EQ(a.run.ticks, b.run.ticks);
    EXPECT_EQ(a.run.mem.misses.value(), b.run.mem.misses.value());
    EXPECT_DOUBLE_EQ(a.energy, b.energy);
}

TEST(Experiment, MetricsAreFinite)
{
    ExperimentConfig cfg;
    cfg.scale = 0.25;
    cfg.config.protocol = Protocol::predicted;
    cfg.config.predictor = PredictorKind::sp;
    ExperimentResult r = runExperiment("ocean", cfg);
    EXPECT_GT(r.commMissFraction(), 0.0);
    EXPECT_LT(r.commMissFraction(), 1.0);
    EXPECT_GT(r.avgMissLatency(), 0.0);
    EXPECT_GT(r.bytesPerMiss(), 0.0);
    EXPECT_GT(r.predictionAccuracy(), 0.0);
    EXPECT_LE(r.predictionAccuracy(), 1.0);
    EXPECT_GT(r.energy, 0.0);
}
