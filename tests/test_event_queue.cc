/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "event/event_queue.hh"

using namespace spp;

TEST(EventQueue, StartsAtZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] {
        ++fired;
        eq.scheduleAfter(5, [&] {
            ++fired;
            eq.scheduleAfter(5, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.curTick(), 15u);
}

// Regression: extracting the top entry used to move out of
// priority_queue::top() before pop(), so a pop triggered by the
// running action (or pop's own sift-down) compared gutted entries.
// Scheduling same-tick events from inside step() exercises exactly
// that path: the heap is re-shaped while the extracted entry's
// action is still live.
TEST(EventQueue, ActionSchedulesSameTickEvents)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        // Same-tick events scheduled mid-step must run after the
        // already-queued same-tick event (FIFO by sequence).
        eq.schedule(10, [&] { order.push_back(2); });
        eq.schedule(10, [&] {
            order.push_back(3);
            eq.schedule(10, [&] { order.push_back(4); });
        });
    });
    eq.schedule(10, [&] { order.push_back(1); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.curTick(), 10u);
}

// Heavier mid-step scheduling: a chain where every event inserts
// several future and same-tick events keeps the heap honest under
// repeated extraction + insertion.
TEST(EventQueue, StressMidStepScheduling)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    std::function<void(int)> fanout = [&](int depth) {
        ++fired;
        if (depth >= 6)
            return;
        for (int i = 0; i < 3; ++i) {
            eq.scheduleAfter(static_cast<Tick>(i),
                             [&, depth] { fanout(depth + 1); });
        }
    };
    eq.schedule(1, [&] { fanout(0); });
    EXPECT_TRUE(eq.run());
    // Full ternary tree of depth 6: (3^7 - 1) / 2 events.
    EXPECT_EQ(fired, 1093u);
    EXPECT_EQ(eq.executed(), 1093u);
}

TEST(EventQueue, RunLimitStopsEarly)
{
    EventQueue eq;
    bool late_fired = false;
    eq.schedule(10, [] {});
    eq.schedule(100, [&] { late_fired = true; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_FALSE(late_fired);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(late_fired);
}

TEST(EventQueue, CountsExecuted)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_DEATH({ eq.schedule(5, [] {}); }, "past");
    });
    eq.run();
}

// --- Calendar queue vs. reference heap (property test) ---
//
// The slotted near-window/far-heap queue must reproduce the exact
// global (when, FIFO-seq) execution order of a plain binary heap on
// arbitrary schedules, including events scheduled from inside
// running events at the current tick (the PR-1 regression class) and
// offsets straddling the near-window edge. Its pending-tick profile
// (forEachPendingTick, which the model checker hashes) must match the
// reference's pending events too.

namespace {

constexpr spp::Tick kOffsets[] = {0,    1,    3,    17,   255,
                                  1023, 1024, 1025, 4096, 50000};
constexpr std::size_t kNumOffsets =
    sizeof(kOffsets) / sizeof(kOffsets[0]);
constexpr std::uint64_t kRootBase = 1'000'000;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Depth of @p id in the ternary id tree rooted at kRootBase. */
int
idDepth(std::uint64_t id)
{
    int d = 0;
    while (id >= 3 * kRootBase) {
        id /= 3;
        ++d;
    }
    return d;
}

/** Children of @p id and their offsets are a pure function of the
 * id, so the real queue and the reference replay the identical
 * logical schedule without sharing any state. */
template <typename SpawnFn>
void
spawnChildren(std::uint64_t id, std::uint64_t seed, spp::Tick now,
              SpawnFn &&spawn)
{
    const std::uint64_t h = mix64(id ^ seed);
    const unsigned n_children = static_cast<unsigned>(h % 3);
    if (idDepth(id) >= 6)
        return;
    for (unsigned k = 1; k <= n_children; ++k) {
        const spp::Tick off = kOffsets[(h >> (8 * k)) % kNumOffsets];
        spawn(now + off, 3 * id + k);
    }
}

spp::Tick
rootTick(std::uint64_t seed, unsigned i)
{
    return mix64(seed ^ (i + 77)) % 3000;
}

struct RealRun
{
    spp::EventQueue eq;
    std::vector<std::uint64_t> order;
    std::uint64_t seed = 0;

    void
    spawn(spp::Tick when, std::uint64_t id)
    {
        eq.schedule(when, [this, id] { exec(id); });
    }

    void
    exec(std::uint64_t id)
    {
        order.push_back(id);
        spawnChildren(id, seed, eq.curTick(),
                      [this](spp::Tick when, std::uint64_t child) {
                          spawn(when, child);
                      });
    }
};

/** A pending-tick profile: (tick, events due then), ascending. */
using Profile = std::vector<std::pair<spp::Tick, std::size_t>>;

/** Reference semantics: strict (when, schedule-seq) order. */
struct ReferenceRun
{
    std::map<std::pair<spp::Tick, std::uint64_t>, std::uint64_t> q;
    std::uint64_t seq = 0;
    std::vector<std::uint64_t> order;
    std::uint64_t seed = 0;

    void
    spawn(spp::Tick when, std::uint64_t id)
    {
        q.emplace(std::pair{when, seq++}, id);
    }

    void
    step()
    {
        const auto it = q.begin();
        const spp::Tick now = it->first.first;
        const std::uint64_t id = it->second;
        q.erase(it);
        order.push_back(id);
        spawnChildren(id, seed, now,
                      [this](spp::Tick when, std::uint64_t child) {
                          spawn(when, child);
                      });
    }

    Profile
    pending() const
    {
        Profile p;
        for (const auto &[key, id] : q) {
            if (!p.empty() && p.back().first == key.first)
                ++p.back().second;
            else
                p.emplace_back(key.first, 1);
        }
        return p;
    }
};

/** The queue's forEachPendingTick profile, as reported. */
Profile
pendingProfile(const spp::EventQueue &eq)
{
    Profile p;
    eq.forEachPendingTick([&p](spp::Tick when, std::size_t n) {
        p.emplace_back(when, n);
    });
    return p;
}

} // namespace

TEST(EventQueue, MatchesReferenceHeapOnRandomSchedules)
{
    constexpr unsigned n_roots = 32;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RealRun real;
        ReferenceRun ref;
        real.seed = seed;
        ref.seed = seed;
        for (unsigned i = 0; i < n_roots; ++i) {
            real.spawn(rootTick(seed, i), kRootBase + i);
            ref.spawn(rootTick(seed, i), kRootBase + i);
        }
        // Step both in lockstep; every 10 events (a seed runs about
        // 200) the queue's pending ticks must match the reference's.
        while (!real.eq.empty()) {
            ASSERT_FALSE(ref.q.empty()) << "seed " << seed;
            real.eq.step();
            ref.step();
            if (real.eq.executed() % 10 == 0) {
                ASSERT_EQ(pendingProfile(real.eq), ref.pending())
                    << "seed " << seed << " after "
                    << real.eq.executed() << " events";
            }
        }

        ASSERT_FALSE(ref.order.empty());
        EXPECT_EQ(real.order, ref.order) << "seed " << seed;
        EXPECT_TRUE(ref.q.empty());
    }
}

// Far-heap and slot events due at one tick are one entry of the
// profile: the same pending events must fold alike into the model
// checker's state hash however they were scheduled.
TEST(EventQueue, PendingTickReportedOnceAcrossHeapAndSlot)
{
    EventQueue eq;
    eq.schedule(2000, [] {}); // Beyond the window: the far heap.
    eq.schedule(1500, [&eq] { eq.schedule(2000, [] {}); }); // A slot.
    EXPECT_FALSE(eq.run(1500));
    EXPECT_EQ(eq.curTick(), 1500u);
    EXPECT_EQ(pendingProfile(eq), (Profile{{2000, 2}}));
}

// Destroying a queue mid-run destroys every pending closure exactly
// once, near or far, and a closure that ran is destroyed when it
// returns: each closure holds a shared_ptr copy, so use_count() counts
// the live ones.
TEST(EventQueue, DestroyingMidRunDestroysEachPendingActionOnce)
{
    struct Hop
    {
        EventQueue *eq;
        std::shared_ptr<int> token;
        Tick delay;

        void operator()() { eq->scheduleAfter(delay, Hop{*this}); }
    };
    const auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        // 64 chains hopping 7 ticks stay in the window, several to a
        // slot; 64 hopping 3,000 ticks stay in the far heap.
        for (Tick t = 0; t < 64; ++t) {
            eq.schedule(t, Hop{&eq, token, 7});
            eq.schedule(t, Hop{&eq, token, 3000});
        }
        EXPECT_FALSE(eq.run(5000));
        EXPECT_EQ(eq.pending(), 128u);
        EXPECT_EQ(token.use_count(), 1 + 128);
        std::size_t far = 0;
        eq.forEachPendingTick([&far](Tick when, std::size_t n) {
            if (when >= 6000)
                far += n;
        });
        EXPECT_EQ(far, 64u);
    }
    EXPECT_EQ(token.use_count(), 1);
}
