/**
 * @file
 * Scalable sharer-set representations: HomeDirectory semantics per
 * format, the superset invariant against an exact reference model,
 * the modelled storage costs, and an end-to-end regression that
 * coarse-vector supersets never let a protocol violate SWMR.
 */

#include <gtest/gtest.h>

#include "check/fuzzer.hh"
#include "coherence/home_directory.hh"
#include "common/rng.hh"

using namespace spp;

namespace {

Config
mkConfig(SharerFormat f, unsigned n, unsigned k = 4, unsigned p = 4)
{
    Config c;
    c.sharerFormat = f;
    c.numCores = n;
    c.coarseCoresPerBit = k;
    c.sharerPointers = p;
    return c;
}

constexpr Addr line = 0x40;

} // namespace

TEST(HomeDirectory, FullMapIsExact)
{
    HomeDirectory d(mkConfig(SharerFormat::full, 1024));
    HomeDirectory::Entry &e = d.at(line);
    d.readFromMemory(e, 3);
    d.readFromMemory(e, 900);
    EXPECT_EQ(d.sharers(e), (CoreSet{3, 900}));
    d.writeback(line, 3);
    EXPECT_EQ(d.sharers(e), CoreSet{900});
    d.write(e, 7);
    EXPECT_EQ(d.sharers(e), CoreSet{7});
    EXPECT_FALSE(e.overflow);
}

TEST(HomeDirectory, CoarseExpandsToGroups)
{
    HomeDirectory d(mkConfig(SharerFormat::coarse, 16));
    HomeDirectory::Entry &e = d.at(line);
    d.readFromMemory(e, 5); // Group 1 = cores 4..7.
    EXPECT_EQ(d.sharers(e), (CoreSet{4, 5, 6, 7}));
    EXPECT_TRUE(d.mayShare(e, 6)); // Whole group "may share".
    d.writeback(line, 5); // Per-core removal impossible.
    EXPECT_EQ(d.sharers(e), (CoreSet{4, 5, 6, 7}));
    d.write(e, 0); // Write path: exact single group again.
    EXPECT_EQ(d.sharers(e), (CoreSet{0, 1, 2, 3}));
}

TEST(HomeDirectory, CoarseClipsLastGroupToCoreCount)
{
    // 10 cores, K = 4: the last group holds only cores 8..9.
    HomeDirectory d(mkConfig(SharerFormat::coarse, 10));
    HomeDirectory::Entry &e = d.at(line);
    d.readFromMemory(e, 9);
    EXPECT_EQ(d.sharers(e), (CoreSet{8, 9}));
}

TEST(HomeDirectory, LimitedExactUntilOverflow)
{
    HomeDirectory d(mkConfig(SharerFormat::limited, 64, 4, 2));
    HomeDirectory::Entry &e = d.at(line);
    d.readFromMemory(e, 10);
    d.readFromMemory(e, 20);
    EXPECT_EQ(d.sharers(e), (CoreSet{10, 20}));
    EXPECT_FALSE(e.overflow);
    d.writeback(line, 10); // Exact removal below the pointer limit.
    EXPECT_EQ(d.sharers(e), CoreSet{20});
    d.readFromMemory(e, 30);
    d.readFromMemory(e, 40); // Third sharer with P = 2: broadcast.
    EXPECT_TRUE(e.overflow);
    EXPECT_EQ(d.sharers(e), CoreSet::all(64));
    EXPECT_TRUE(d.mayShare(e, 63));
    d.write(e, 5); // The next write makes the entry exact again.
    EXPECT_FALSE(e.overflow);
    EXPECT_EQ(d.sharers(e), CoreSet{5});
}

TEST(HomeDirectory, EntryBitsPerFormat)
{
    EXPECT_EQ(mkConfig(SharerFormat::full, 64).sharerEntryBits(), 64u);
    EXPECT_EQ(mkConfig(SharerFormat::full, 1024).sharerEntryBits(),
              1024u);
    // ceil(n / K) group bits.
    EXPECT_EQ(mkConfig(SharerFormat::coarse, 64, 4).sharerEntryBits(),
              16u);
    EXPECT_EQ(mkConfig(SharerFormat::coarse, 1024, 8).sharerEntryBits(),
              128u);
    // P * ceil(log2 n) + 1 overflow bit.
    EXPECT_EQ(
        mkConfig(SharerFormat::limited, 64, 4, 4).sharerEntryBits(),
        4u * 6u + 1u);
    EXPECT_EQ(
        mkConfig(SharerFormat::limited, 1024, 4, 8).sharerEntryBits(),
        8u * 10u + 1u);
}

// The load-bearing invariant: whatever the transition sequence, every
// format's sharers() is a superset of the exact sharer set, and
// mayShare() never returns false for an actual sharer. Protocols rely
// on exactly this to keep SWMR when they multicast to the superset.
TEST(HomeDirectory, SupersetInvariantUnderRandomOps)
{
    for (const SharerFormat f :
         {SharerFormat::full, SharerFormat::coarse,
          SharerFormat::limited}) {
        for (const unsigned n : {16u, 63u, 64u, 65u, 256u}) {
            HomeDirectory d(mkConfig(f, n, 4, 4));
            HomeDirectory::Entry &e = d.at(line);
            CoreSet exact;
            Rng rng(77 * n + static_cast<unsigned>(f));
            for (int step = 0; step < 2000; ++step) {
                const CoreId c = static_cast<CoreId>(rng.below(n));
                switch (rng.below(5)) {
                  case 0:
                    d.readFromMemory(e, c);
                    exact.set(c);
                    break;
                  case 1:
                    d.readFromOwner(e, c);
                    exact.set(c);
                    break;
                  case 2:
                    // The core really dropped its copy.
                    d.writeback(line, c);
                    exact.reset(c);
                    break;
                  case 3:
                    d.write(e, c);
                    exact = CoreSet::single(c);
                    break;
                  default:
                    if (!exact.empty()) {
                        ASSERT_TRUE(d.mayShare(e, exact.first()))
                            << toString(f) << " n=" << n;
                    }
                    break;
                }
                ASSERT_TRUE(d.sharers(e).contains(exact))
                    << toString(f) << " n=" << n << " step " << step;
                if (f == SharerFormat::full) {
                    ASSERT_EQ(d.sharers(e), exact);
                }
            }
        }
    }
}

// End-to-end SWMR regression: seeded random workloads under the
// protocol invariant checker, with the directory forced onto the
// inexact formats. Extra invalidations to never-sharers must be
// answered harmlessly and no store may ever see a stale second owner.
TEST(SharerFormats, CoarseMulticastNeverViolatesSwmr)
{
    for (const Protocol proto :
         {Protocol::directory, Protocol::predicted,
          Protocol::multicast}) {
        for (unsigned seed = 1; seed <= 3; ++seed) {
            FuzzCase c;
            c.protocol = proto;
            c.predictor = proto == Protocol::directory
                ? PredictorKind::none
                : PredictorKind::sp;
            c.sharerFormat = SharerFormat::coarse;
            c.workload.seed = seed;
            const FuzzResult r = runFuzzCase(c);
            EXPECT_FALSE(r.failed())
                << toString(proto) << " seed " << seed << "\n"
                << r.trace;
            EXPECT_TRUE(r.violations.empty());
        }
    }
}

TEST(SharerFormats, LimitedOverflowBroadcastStaysCoherent)
{
    for (unsigned seed = 1; seed <= 3; ++seed) {
        FuzzCase c;
        c.protocol = Protocol::directory;
        c.sharerFormat = SharerFormat::limited;
        c.numCores = 16; // > P = 4 sharers overflow readily.
        c.workload.seed = seed;
        const FuzzResult r = runFuzzCase(c);
        EXPECT_FALSE(r.failed()) << "seed " << seed << "\n" << r.trace;
    }
}
