/**
 * @file
 * Unit tests for the common utilities: strfmt, Rng, stats, Config
 * validation.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/config.hh"
#include "common/format.hh"
#include "common/rng.hh"
#include "common/stats.hh"

using namespace spp;

// --- strfmt ---

TEST(Format, Basic)
{
    EXPECT_EQ(strfmt("a {} c {}", 1, "x"), "a 1 c x");
}

TEST(Format, NoArgs)
{
    EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(Format, EscapedBrace)
{
    EXPECT_EQ(strfmt("{{}} {}", 7), "{} 7");
}

TEST(Format, SurplusArgs)
{
    EXPECT_EQ(strfmt("x", 1, 2), "x 1 2");
}

TEST(Format, SurplusPlaceholders)
{
    EXPECT_EQ(strfmt("{} {}", 1), "1 {}");
}

// --- Rng ---

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 10 && !differ; ++i)
        differ = a.next() != b.next();
    EXPECT_TRUE(differ);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        auto v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // All values hit.
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, BurstBounded)
{
    Rng r(19);
    for (int i = 0; i < 200; ++i) {
        const unsigned b = r.burst(0.9, 8);
        EXPECT_GE(b, 1u);
        EXPECT_LE(b, 8u);
    }
}

// --- Stats ---

TEST(Stats, Counter)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, CounterExchange)
{
    Counter c;
    c += 7;
    EXPECT_EQ(c.exchange(), 7u); // Returns the old value...
    EXPECT_EQ(c.value(), 0u);    // ...and clears by default.
    c += 2;
    EXPECT_EQ(c.exchange(10), 2u);
    EXPECT_EQ(c.value(), 10u);
}

TEST(Stats, Average)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    a.sample(9);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
}

// --- Config ---

TEST(Config, DefaultsValidate)
{
    Config cfg;
    cfg.validate(); // Must not fatal.
    EXPECT_EQ(cfg.numCores, 16u);
    EXPECT_EQ(cfg.meshX * cfg.meshY, cfg.numCores);
}

TEST(Config, DeathOnBadMesh)
{
    Config cfg;
    cfg.numCores = 12; // 4x4 mesh no longer covers it.
    EXPECT_DEATH({ cfg.validate(); }, "mesh");
}

TEST(Config, DeathOnBadLineSize)
{
    Config cfg;
    cfg.lineBytes = 48;
    EXPECT_DEATH({ cfg.validate(); }, "power of two");
}

TEST(Config, GeometryProductsDoNotWrap)
{
    // 64 * 2^26 wraps to 0 in 32 bits (a division by zero) ...
    Config l1;
    l1.l1Assoc = 67108864;
    EXPECT_NE(configValidate(l1).find("L1 geometry"), std::string::npos);
    Config l2;
    l2.l2Assoc = 67108864;
    EXPECT_NE(configValidate(l2).find("L2 geometry"), std::string::npos);
    // ... and 64 * (2^26 + 1) to 64, which divides the 16 KB L1.
    Config l1_odd;
    l1_odd.l1Assoc = 67108865;
    EXPECT_NE(configValidate(l1_odd).find("L1 geometry"),
              std::string::npos);
    // 268435457 * 16 wraps to 16: a 16-core "mesh" one row high.
    Config mesh;
    mesh.meshX = 268435457;
    mesh.meshY = 16;
    EXPECT_NE(configValidate(mesh).find("mesh 268435457x16"),
              std::string::npos);
}

TEST(Config, SharerPointersFitTheirCount)
{
    // A limited entry counts its pointers in 16 bits.
    Config cfg;
    cfg.sharerPointers = 65535;
    EXPECT_EQ(configValidate(cfg), "");
    cfg.sharerPointers = 65536;
    EXPECT_EQ(configValidate(cfg),
              "sharerPointers must be in [1, 65535], got 65536");
    cfg.sharerPointers = 0;
    EXPECT_NE(configValidate(cfg).find("sharerPointers"),
              std::string::npos);
}

TEST(Config, DeathOnPredictedWithoutPredictor)
{
    Config cfg;
    cfg.protocol = Protocol::predicted;
    cfg.predictor = PredictorKind::none;
    EXPECT_DEATH({ cfg.validate(); }, "predictor");
}

TEST(Config, ProtocolNames)
{
    EXPECT_STREQ(toString(Protocol::directory), "directory");
    EXPECT_STREQ(toString(Protocol::broadcast), "broadcast");
    EXPECT_STREQ(toString(Protocol::predicted), "predicted");
    EXPECT_STREQ(toString(PredictorKind::sp), "sp");
    EXPECT_STREQ(toString(PredictorKind::addr), "addr");
}

TEST(Config, CleanSharedFillFollowsFState)
{
    Config cfg;
    EXPECT_EQ(cfg.cleanSharedFill(), Mesif::forwarding);
    cfg.enableFState = false;
    EXPECT_EQ(cfg.cleanSharedFill(), Mesif::shared);
}

TEST(Config, DeathOnBadDram)
{
    Config cfg;
    cfg.enableDram = true;
    cfg.dramBanks = 0;
    EXPECT_DEATH({ cfg.validate(); }, "DRAM");
}

TEST(Config, DeathOnBadFilterRegion)
{
    Config cfg;
    cfg.filterRegionBytes = 48;
    EXPECT_DEATH({ cfg.validate(); }, "filterRegionBytes");
}

TEST(Config, MulticastNeedsPredictor)
{
    Config cfg;
    cfg.protocol = Protocol::multicast;
    EXPECT_DEATH({ cfg.validate(); }, "requires a predictor");
    EXPECT_STREQ(toString(Protocol::multicast), "multicast");
}

// --- configDescribe / configHash field coverage ---

namespace {

// Produce a value different from the field's default, whatever its
// type.
void bumpField(bool &v) { v = !v; }
void bumpField(double &v) { v += 0.25; }
void
bumpField(Protocol &v)
{
    v = v == Protocol::broadcast ? Protocol::directory
                                 : Protocol::broadcast;
}
void
bumpField(PredictorKind &v)
{
    v = v == PredictorKind::sp ? PredictorKind::none
                               : PredictorKind::sp;
}
void
bumpField(SharerFormat &v)
{
    v = v == SharerFormat::coarse ? SharerFormat::full
                                  : SharerFormat::coarse;
}
template <typename T> void bumpField(T &v) { v += 1; }

} // namespace

TEST(Config, DescribeCoversEveryField)
{
    const Config base;
    const std::string base_desc = configDescribe(base);
    const std::uint64_t base_hash = configHash(base);
    // Every field appears by name, and changing any single field
    // changes both the description and the hash.
#define SPP_CHECK_FIELD(f)                                            \
    {                                                                 \
        EXPECT_NE(base_desc.find(#f "="), std::string::npos) << #f;   \
        Config c;                                                     \
        bumpField(c.f);                                               \
        EXPECT_NE(configDescribe(c), base_desc) << #f;                \
        EXPECT_NE(configHash(c), base_hash) << #f;                    \
    }
    SPP_CONFIG_FIELDS(SPP_CHECK_FIELD)
#undef SPP_CHECK_FIELD
}
