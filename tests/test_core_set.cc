/**
 * @file
 * Unit tests for CoreSet.
 */

#include <gtest/gtest.h>

#include "common/core_set.hh"

using namespace spp;

TEST(CoreSet, StartsEmpty)
{
    CoreSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mask(), 0u);
}

TEST(CoreSet, SetResetTest)
{
    CoreSet s;
    s.set(3);
    s.set(15);
    EXPECT_TRUE(s.test(3));
    EXPECT_TRUE(s.test(15));
    EXPECT_FALSE(s.test(4));
    EXPECT_EQ(s.count(), 2u);
    s.reset(3);
    EXPECT_FALSE(s.test(3));
    EXPECT_EQ(s.count(), 1u);
}

TEST(CoreSet, InitializerList)
{
    CoreSet s{1, 5, 9};
    EXPECT_EQ(s.count(), 3u);
    EXPECT_TRUE(s.test(1));
    EXPECT_TRUE(s.test(5));
    EXPECT_TRUE(s.test(9));
}

TEST(CoreSet, Single)
{
    CoreSet s = CoreSet::single(7);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.first(), 7u);
}

TEST(CoreSet, All)
{
    EXPECT_EQ(CoreSet::all(16).count(), 16u);
    EXPECT_EQ(CoreSet::all(64).count(), 64u);
    EXPECT_EQ(CoreSet::all(1).mask(), 1u);
}

TEST(CoreSet, SetOperations)
{
    CoreSet a{1, 2, 3};
    CoreSet b{3, 4};
    EXPECT_EQ((a | b), (CoreSet{1, 2, 3, 4}));
    EXPECT_EQ((a & b), CoreSet{3});
    EXPECT_EQ((a - b), (CoreSet{1, 2}));
    EXPECT_TRUE(a.intersects(b));
    EXPECT_FALSE((a - b).intersects(b));
}

TEST(CoreSet, Contains)
{
    CoreSet big{1, 2, 3, 4};
    EXPECT_TRUE(big.contains(CoreSet{2, 3}));
    EXPECT_TRUE(big.contains(CoreSet{}));
    EXPECT_FALSE(big.contains(CoreSet{2, 5}));
    EXPECT_TRUE(CoreSet{}.contains(CoreSet{}));
}

TEST(CoreSet, Iteration)
{
    CoreSet s{0, 7, 31, 63};
    std::vector<CoreId> seen;
    for (CoreId c : s)
        seen.push_back(c);
    EXPECT_EQ(seen, (std::vector<CoreId>{0, 7, 31, 63}));
}

TEST(CoreSet, ToString)
{
    EXPECT_EQ((CoreSet{0, 5}).toString(), "{0,5}");
    EXPECT_EQ(CoreSet{}.toString(), "{}");
}

TEST(CoreSet, ToBitString)
{
    CoreSet s{0, 3};
    EXPECT_EQ(s.toBitString(4), "1001");
    EXPECT_EQ(s.toBitString(6), "100100");
}

TEST(CoreSet, CompoundAssignment)
{
    CoreSet s{1};
    s |= CoreSet{2};
    EXPECT_EQ(s, (CoreSet{1, 2}));
    s &= CoreSet{2, 3};
    EXPECT_EQ(s, CoreSet{2});
}

// Property-style sweep: union/intersection/difference relations hold
// for a range of generated masks.
class CoreSetAlgebra : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CoreSetAlgebra, Laws)
{
    const std::uint64_t seed = GetParam();
    const CoreSet a = CoreSet::fromMask(seed * 0x9e3779b97f4a7c15ULL);
    const CoreSet b = CoreSet::fromMask(seed * 0xbf58476d1ce4e5b9ULL);

    EXPECT_EQ((a | b).count() + (a & b).count(),
              a.count() + b.count());
    EXPECT_TRUE((a | b).contains(a));
    EXPECT_TRUE(a.contains(a & b));
    EXPECT_EQ(((a - b) | (a & b)), a);
    EXPECT_FALSE((a - b).intersects(b));
    unsigned n = 0;
    for (CoreId c : a) {
        EXPECT_TRUE(a.test(c));
        ++n;
    }
    EXPECT_EQ(n, a.count());
}

INSTANTIATE_TEST_SUITE_P(Masks, CoreSetAlgebra,
                         ::testing::Range<std::uint64_t>(1, 50));

// --- Reference-model property test -----------------------------------
//
// Drive CoreSet and std::bitset through the same random op sequence
// and demand identical observable state after every step. The sizes
// straddle the word boundaries where shift bugs live (63/64/65) plus
// genuinely multi-word widths. The sets under test, and the copies
// the checks make, live in storage pre-filled with random bytes: a
// set reads only its words in use, so a read past them shows up as a
// wrong answer rather than as a harmless zero.

#include <bitset>
#include <new>

#include "common/rng.hh"

namespace {

using Ref = std::bitset<maxCores>;

/** One CoreSet constructed in storage first filled with random
 * bytes (volatile stores, so the compiler cannot drop them as dead
 * before the constructor runs). */
class Dirty
{
  public:
    explicit Dirty(Rng &rng) : set_(new (scribble(rng)) CoreSet) {}
    Dirty(Rng &rng, const CoreSet &from)
        : set_(new (scribble(rng)) CoreSet(from))
    {}
    Dirty(const Dirty &) = delete;
    Dirty &operator=(const Dirty &) = delete;

    CoreSet &operator*() { return *set_; }
    CoreSet *operator->() { return set_; }

  private:
    unsigned char *
    scribble(Rng &rng)
    {
        volatile unsigned char *p = buf_;
        for (std::size_t i = 0; i < sizeof(buf_); ++i)
            p[i] = static_cast<unsigned char>(rng.next());
        return buf_;
    }

    alignas(CoreSet) unsigned char buf_[sizeof(CoreSet)];
    CoreSet *set_;
};

/** What toHex() must print for @p r over @p n cores. */
std::string
refHex(const Ref &r, unsigned n)
{
    std::string s;
    for (unsigned nib = (n + 3) / 4; nib-- > 0;) {
        unsigned d = 0;
        for (unsigned b = 0; b < 4; ++b)
            if (nib * 4 + b < n && r.test(nib * 4 + b))
                d |= 1u << b;
        if (s.empty() && d == 0)
            continue;
        s.push_back("0123456789abcdef"[d]);
    }
    return s.empty() ? "0" : s;
}

class CoreSetVsBitset : public ::testing::TestWithParam<unsigned>
{};

} // namespace

TEST_P(CoreSetVsBitset, RandomOpsMatchReference)
{
    const unsigned n = GetParam();
    ASSERT_LE(n, maxCores);
    Rng rng(0xC0DE + n);
    Dirty a(rng), b(rng);
    Ref ra, rb;

    auto check = [&](CoreSet &s, const Ref &r, int step) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " step " << step);
        ASSERT_EQ(s.count(), r.count());
        ASSERT_EQ(s.empty(), r.none());
        for (unsigned c = 0; c < n; ++c)
            ASSERT_EQ(s.test(c), r.test(c)) << "bit " << c;
        // Iteration yields exactly the set bits, ascending.
        CoreId prev = 0;
        unsigned seen = 0;
        for (CoreId c : s) {
            ASSERT_TRUE(r.test(c));
            if (seen) {
                ASSERT_LT(prev, c);
            } else {
                ASSERT_EQ(s.first(), c);
            }
            prev = c;
            ++seen;
        }
        ASSERT_EQ(seen, r.count());
        ASSERT_EQ(s.toHex(), refHex(r, n));
        // A copy into garbage, and a reparse that uses only the words
        // the hex needs, equal the original.
        Dirty copy(rng, s);
        ASSERT_EQ(*copy, s);
        ASSERT_EQ(copy->toHex(), s.toHex());
        ASSERT_EQ(CoreSet::fromHex(s.toHex()), s);
    };

    for (int step = 0; step < 3000; ++step) {
        const CoreId c = static_cast<CoreId>(rng.below(n));
        switch (rng.below(14)) {
          case 0: a->set(c); ra.set(c); break;
          case 1: a->reset(c); ra.reset(c); break;
          case 2: b->set(c); rb.set(c); break;
          case 3: b->reset(c); rb.reset(c); break;
          case 4: *a |= *b; ra |= rb; break;
          case 5: *a &= *b; ra &= rb; break;
          case 6: *a = *a - *b; ra &= ~rb; break;
          case 7: *a = *b | *a; ra |= rb; break;
          case 8: *a = *b & *a; ra &= rb; break;
          case 9:
            *a = CoreSet::single(c);
            ra.reset();
            ra.set(c);
            break;
          case 10:
            // Full sets of every width, not only n: word counts vary.
            *a = CoreSet::all(c + 1);
            ra.reset();
            for (unsigned i = 0; i <= c; ++i)
                ra.set(i);
            break;
          case 11: a->clear(); ra.reset(); break;
          case 12: *b = *a; rb = ra; break;
          case 13: *b = *b - *a; rb &= ~ra; break;
        }
        check(*a, ra, step);
        check(*b, rb, step);
        ASSERT_EQ(*a == *b, ra == rb) << "step " << step;
        ASSERT_EQ(a->contains(*b), (ra & rb) == rb) << "step " << step;
        ASSERT_EQ(b->contains(*a), (ra & rb) == ra) << "step " << step;
        ASSERT_EQ(a->intersects(*b), (ra & rb).any()) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, CoreSetVsBitset,
                         ::testing::Values(63u, 64u, 65u, 128u, 1024u),
                         [](const auto &info) {
                             std::string name = "n";
                             name += std::to_string(info.param);
                             return name;
                         });

TEST(CoreSet, EqualAcrossWordCounts)
{
    // {3} after adding and removing the last core uses every word,
    // the fresh {3} one; they are the same set.
    CoreSet wide{3, maxCores - 1};
    wide.reset(maxCores - 1);
    EXPECT_EQ(wide, CoreSet{3});
    EXPECT_EQ(CoreSet{3}, wide);
    EXPECT_EQ(wide.toHex(), "8");
    EXPECT_TRUE(CoreSet{3}.contains(wide));
    EXPECT_EQ(wide - CoreSet{3}, CoreSet{});
    EXPECT_NE(wide, CoreSet{});
}

TEST(CoreSet, AllAtWordBoundaries)
{
    // all(64) once shifted by the full word width (UB); pin the
    // boundary sizes explicitly.
    EXPECT_EQ(CoreSet::all(63).count(), 63u);
    EXPECT_EQ(CoreSet::all(64).count(), 64u);
    EXPECT_EQ(CoreSet::all(65).count(), 65u);
    EXPECT_EQ(CoreSet::all(128).count(), 128u);
    EXPECT_EQ(CoreSet::all(maxCores).count(), maxCores);
    EXPECT_FALSE(CoreSet::all(65).test(65));
    EXPECT_TRUE(CoreSet::all(65).test(64));
}
