/**
 * @file
 * Scalable sharer-set representations: HomeDirectory semantics per
 * format, the superset invariant against an exact reference model,
 * the modelled storage costs, and an end-to-end regression that
 * coarse-vector supersets never let a protocol violate SWMR.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

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

namespace {

/** Reference Dir-P-B entry: at most P exact pointers, then an
 * overflow flag that reads as every core until the next write. */
struct DirPB
{
    std::vector<CoreId> ptrs;
    bool overflow = false;
    CoreId owner = invalidCore;

    CoreSet
    sharers(unsigned n) const
    {
        if (overflow)
            return CoreSet::all(n);
        CoreSet s;
        for (CoreId c : ptrs)
            s.set(c);
        return s;
    }

    void
    add(CoreId c, unsigned p)
    {
        if (overflow || std::find(ptrs.begin(), ptrs.end(), c) !=
                            ptrs.end())
            return;
        if (ptrs.size() < p)
            ptrs.push_back(c);
        else
            overflow = true;
    }
};

} // namespace

// The limited format against a reference Dir-P-B, exactly: the
// superset test above would miss a pointer that reports an extra
// sharer. Random transitions on a few lines, with cores drawn half
// from a pool of P + 2 (so writebacks hit pointers at 1,024 cores)
// and half from all n; after each one the line's sharers(), every
// core's mayShare(), overflow, owner and any fill state must match
// the reference, and the hash must equal that of a directory built
// afresh, in the opposite line order, with the same entries.
TEST(HomeDirectory, LimitedMatchesDirPBReference)
{
    constexpr unsigned lines = 8;
    constexpr int steps = 1000;
    auto line_of = [](unsigned i) { return 0x1000 + Addr{i} * 64; };
    auto digest = [](const HomeDirectory &d) {
        StateHasher h;
        d.hashInto(h);
        return h.value();
    };
    for (const unsigned n : {3u, 64u, 256u, 1024u}) {
        for (const unsigned p : {1u, 2u, 4u, 7u}) {
            SCOPED_TRACE(testing::Message() << "n=" << n << " P=" << p);
            const Config cfg = mkConfig(SharerFormat::limited, n, 4, p);
            HomeDirectory d(cfg);
            std::map<unsigned, DirPB> ref;
            Rng rng(1000 * n + p);
            std::vector<CoreId> pool;
            for (unsigned k = 0; k < p + 2; ++k)
                pool.push_back(static_cast<CoreId>(rng.below(n)));
            for (int step = 0; step < steps; ++step) {
                const unsigned i = static_cast<unsigned>(rng.below(lines));
                const CoreId c = rng.below(2) != 0
                    ? pool[rng.below(pool.size())]
                    : static_cast<CoreId>(rng.below(n));
                switch (rng.below(4)) {
                  case 0: {
                    d.readFromOwner(d.at(line_of(i)), c);
                    DirPB &r = ref[i];
                    r.add(c, p);
                    r.owner = cfg.enableFState ? c : invalidCore;
                    break;
                  }
                  case 1: {
                    const Mesif fill =
                        d.readFromMemory(d.at(line_of(i)), c);
                    DirPB &r = ref[i];
                    CoreSet others = r.sharers(n);
                    others.reset(c);
                    r.add(c, p);
                    Mesif want = cfg.enableFState ? Mesif::forwarding
                                                  : Mesif::shared;
                    r.owner = cfg.enableFState ? c : invalidCore;
                    if (others.empty()) {
                        want = Mesif::exclusive;
                        r.owner = c;
                    }
                    ASSERT_EQ(fill, want) << "step " << step;
                    break;
                  }
                  case 2: {
                    d.write(d.at(line_of(i)), c);
                    ref[i] = DirPB{{c}, false, c};
                    break;
                  }
                  default: {
                    d.writeback(line_of(i), c);
                    const auto it = ref.find(i);
                    if (it == ref.end())
                        break;
                    DirPB &r = it->second;
                    if (!r.overflow)
                        std::erase(r.ptrs, c);
                    if (r.owner == c)
                        r.owner = invalidCore;
                    break;
                  }
                }

                const auto it = ref.find(i);
                if (it != ref.end()) {
                    const DirPB &r = it->second;
                    const HomeDirectory::Entry &e = d.at(line_of(i));
                    const CoreSet want = r.sharers(n);
                    ASSERT_EQ(d.sharers(e), want) << "step " << step;
                    ASSERT_EQ(e.overflow, r.overflow) << "step " << step;
                    ASSERT_EQ(e.owner, r.owner) << "step " << step;
                    for (CoreId k = 0; k < n; ++k)
                        ASSERT_EQ(d.mayShare(e, k), want.test(k))
                            << "core " << k << " step " << step;
                }

                HomeDirectory fresh(cfg);
                for (auto r = ref.rbegin(); r != ref.rend(); ++r) {
                    HomeDirectory::Entry &e = fresh.at(line_of(r->first));
                    for (CoreId k : r->second.ptrs)
                        fresh.readFromOwner(e, k);
                    // Overflow through other pointers than d kept:
                    // the hash must not see them.
                    for (CoreId k = 0; r->second.overflow && !e.overflow;
                         ++k)
                        fresh.readFromOwner(e, k);
                    e.owner = r->second.owner;
                }
                ASSERT_EQ(digest(d), digest(fresh)) << "step " << step;
            }
        }
    }
}

// The table grows by doubling and moves every entry and its sharer
// words when it does. Insert enough lines for several growths,
// record each entry right after its transitions, and demand that
// every one survives: each format at 16, 65, 256 and 1,024 cores,
// plus coarse vectors whose ceil(n/K) groups just pass a word.
TEST(HomeDirectory, EntriesSurviveTableGrowth)
{
    struct Shape
    {
        SharerFormat f;
        unsigned n;
        unsigned k;
    };
    std::vector<Shape> shapes;
    for (const SharerFormat f :
         {SharerFormat::full, SharerFormat::coarse,
          SharerFormat::limited})
        for (const unsigned n : {16u, 65u, 256u, 1024u})
            shapes.push_back({f, n, 4});
    shapes.push_back({SharerFormat::coarse, 260, 4});  // 65 groups.
    shapes.push_back({SharerFormat::coarse, 1024, 15}); // 69 groups.

    struct Want
    {
        CoreSet sharers;
        CoreId owner;
        bool overflow;
    };
    constexpr unsigned lines = 20000; // 1,024 slots grow to 32,768.
    auto line_of = [](unsigned i) { return 0x1000 + Addr{i} * 64; };
    for (const Shape &sh : shapes) {
        SCOPED_TRACE(testing::Message() << toString(sh.f) << " n="
                                        << sh.n << " K=" << sh.k);
        HomeDirectory d(mkConfig(sh.f, sh.n, sh.k, 2));
        std::vector<Want> want;
        for (unsigned i = 0; i < lines; ++i) {
            const CoreId c1 = i * 7 % sh.n;
            const CoreId c2 = (i * 13 + 5) % sh.n;
            const CoreId c3 = (i * 31 + sh.n - 1) % sh.n;
            HomeDirectory::Entry &e = d.at(line_of(i));
            d.readFromMemory(e, c1);
            if (i % 3 != 0)
                d.readFromOwner(e, c2);
            if (i % 5 == 0)
                d.readFromOwner(e, c3); // Overflows P = 2 pointers.
            if (i % 7 == 0)
                d.write(e, c3);
            if (i % 11 == 0)
                d.writeback(line_of(i), c1);
            want.push_back({d.sharers(e), e.owner, e.overflow});
        }
        for (unsigned i = 0; i < lines; ++i) {
            const HomeDirectory::Entry &e = d.at(line_of(i));
            ASSERT_EQ(d.sharers(e), want[i].sharers) << "line " << i;
            ASSERT_EQ(e.owner, want[i].owner) << "line " << i;
            ASSERT_EQ(e.overflow, want[i].overflow) << "line " << i;
        }
    }
}

// hashInto folds entries order-insensitively: the same lines inserted
// in opposite orders, so into different slots after different
// growths, hash equal; one changed entry changes the hash, and a
// writeback of a line without an entry creates none.
TEST(HomeDirectory, HashIgnoresInsertionOrder)
{
    constexpr unsigned n = 65;
    constexpr unsigned lines = 3000;
    auto line_of = [](unsigned i) { return 0x1000 + Addr{i} * 64; };
    auto touch = [&](HomeDirectory &d, unsigned i) {
        HomeDirectory::Entry &e = d.at(line_of(i));
        // An Exclusive fill, then a second reader as the F holder.
        d.readFromMemory(e, i % n);
        d.readFromOwner(e, (i * 3 + 1) % n);
    };
    HomeDirectory fwd(mkConfig(SharerFormat::full, n));
    HomeDirectory rev(mkConfig(SharerFormat::full, n));
    for (unsigned i = 0; i < lines; ++i)
        touch(fwd, i);
    for (unsigned i = lines; i-- > 0;)
        touch(rev, i);
    auto digest = [](const HomeDirectory &d) {
        StateHasher h;
        d.hashInto(h);
        return h.value();
    };
    const std::uint64_t h = digest(fwd);
    EXPECT_EQ(digest(rev), h);
    fwd.writeback(line_of(lines), 0);
    EXPECT_EQ(digest(fwd), h);
    rev.writeback(line_of(0), 0); // Line 0 was {0, 1}, owner 1.
    EXPECT_NE(digest(rev), h);

    // The scan agrees with caches that hold what the entries record.
    fwd.check([&](CoreId c, Addr line) {
        const unsigned i = static_cast<unsigned>((line - 0x1000) / 64);
        if (c == (i * 3 + 1) % n)
            return Mesif::forwarding;
        return c == i % n ? Mesif::shared : Mesif::invalid;
    });
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
