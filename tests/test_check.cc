/**
 * @file
 * Tests for the protocol invariant checker and the stress-fuzz
 * harness built on it (src/check/).
 */

#include <gtest/gtest.h>

#include <string>

#include "check/fuzzer.hh"
#include "check/protocol_checker.hh"
#include "common/logging.hh"
#include "harness.hh"

using namespace spp;
using namespace spp::test;

namespace {

struct QuietGuard
{
    QuietGuard() { setQuiet(true); }
    ~QuietGuard() { setQuiet(false); }
};

FuzzCase
smallCase(Protocol p, PredictorKind k, std::uint64_t seed)
{
    FuzzCase c;
    c.protocol = p;
    c.predictor = k;
    c.workload.seed = seed;
    c.workload.segments = 6;
    c.workload.opsPerSegment = 16;
    return c;
}

} // namespace

// ---------------------------------------------------------------------
// Checker attached to scripted (non-fuzz) protocol runs.
// ---------------------------------------------------------------------

TEST(ProtocolChecker, CleanScriptedRunHasNoViolations)
{
    for (Protocol p : {Protocol::directory, Protocol::broadcast}) {
        Config cfg = ProtoHarness::smallConfig();
        cfg.protocol = p;
        ProtoHarness h(cfg);
        CheckerOptions opts;
        opts.abortOnViolation = false;
        ProtocolChecker chk(*h.sys, opts);
        h.access(0, 0x10000, true);
        h.access(1, 0x10000, false);
        h.access(2, 0x10000, true);
        h.accessAll({{3, 0x10040, true}, {4, 0x10040, true}});
        chk.checkQuiescent();
        EXPECT_TRUE(chk.violations().empty())
            << chk.violations().front().rule << ": "
            << chk.violations().front().detail;
        EXPECT_GT(chk.messagesChecked(), 0u);
    }
}

TEST(ProtocolChecker, DetachOnDestruction)
{
    ProtoHarness h;
    std::uint64_t seen = 0;
    {
        CheckerOptions opts;
        opts.abortOnViolation = false;
        ProtocolChecker chk(*h.sys, opts);
        h.access(0, 0x10000, false);
        seen = chk.messagesChecked();
        EXPECT_GT(seen, 0u);
    }
    // Checker destroyed: further traffic must not touch it (would
    // crash on a dangling hook if detach were missing).
    h.access(1, 0x10000, true);
    h.sys->checkCoherence();
}

// ---------------------------------------------------------------------
// Fuzz harness: clean runs, determinism, fault injection, shrinking.
// ---------------------------------------------------------------------

TEST(Fuzzer, CleanRunsAcrossAllProtocols)
{
    QuietGuard q;
    const std::pair<Protocol, PredictorKind> grid[] = {
        {Protocol::directory, PredictorKind::none},
        {Protocol::predicted, PredictorKind::sp},
        {Protocol::broadcast, PredictorKind::none},
        {Protocol::multicast, PredictorKind::sp},
    };
    for (const auto &[p, k] : grid) {
        for (std::uint64_t seed : {1, 7, 23}) {
            const FuzzCase c = smallCase(p, k, seed);
            const FuzzResult r = runFuzzCase(c);
            EXPECT_EQ(r.status, RunStatus::ok)
                << describeFuzzCase(c) << ": " << toString(r.status);
            EXPECT_TRUE(r.violations.empty())
                << describeFuzzCase(c) << ": "
                << r.violations.front().rule << ": "
                << r.violations.front().detail;
            EXPECT_GT(r.messagesChecked, 0u);
            EXPECT_GT(r.ticks, 0u);
        }
    }
}

TEST(Fuzzer, SameSeedIsDeterministic)
{
    QuietGuard q;
    const FuzzCase c =
        smallCase(Protocol::multicast, PredictorKind::sp, 42);
    const FuzzResult a = runFuzzCase(c);
    const FuzzResult b = runFuzzCase(c);
    EXPECT_EQ(a.messagesChecked, b.messagesChecked);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(Fuzzer, InjectedBugsAreCaught)
{
    QuietGuard q;
    for (unsigned bug : {1u, 2u, 3u}) {
        bool caught = false;
        for (std::uint64_t seed = 1; seed <= 10 && !caught; ++seed) {
            // Default (full-size) workload shape: bug 2 only fires on
            // memory refills of stale lines, which the trimmed shape
            // used elsewhere rarely produces.
            FuzzCase c;
            c.workload.seed = seed;
            c.injectBug = bug;
            caught = runFuzzCase(c).failed();
        }
        EXPECT_TRUE(caught)
            << "injected bug " << bug
            << " survived 10 fuzz seeds undetected";
    }
}

TEST(Fuzzer, ShrunkCaseStillFailsAndIsNoLarger)
{
    QuietGuard q;
    FuzzCase failing;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 10 && !found; ++seed) {
        FuzzCase c = smallCase(Protocol::directory,
                               PredictorKind::none, seed);
        c.injectBug = 1;
        if (runFuzzCase(c).failed()) {
            failing = c;
            found = true;
        }
    }
    ASSERT_TRUE(found);

    const FuzzCase minimal = shrinkFuzzCase(failing, 12);
    EXPECT_TRUE(runFuzzCase(minimal).failed());
    EXPECT_LE(minimal.workload.segments, failing.workload.segments);
    EXPECT_LE(minimal.workload.opsPerSegment,
              failing.workload.opsPerSegment);
    EXPECT_LE(minimal.workload.lines, failing.workload.lines);
    EXPECT_LE(minimal.workload.locks, failing.workload.locks);
    EXPECT_LE(minimal.workload.barriers, failing.workload.barriers);
}

TEST(Fuzzer, DescribeRendersReplayableLine)
{
    const FuzzCase c =
        smallCase(Protocol::predicted, PredictorKind::sp, 99);
    const std::string line = describeFuzzCase(c);
    EXPECT_NE(line.find("--protocol predicted"), std::string::npos);
    EXPECT_NE(line.find("--seed 99"), std::string::npos);
    EXPECT_NE(line.find("--segments 6"), std::string::npos);
    EXPECT_EQ(line.find("--inject"), std::string::npos);
}

// The tick budget grows with the machine past 64 cores. This 256-core
// broadcast case runs to tick 5,058,474 with no violation; under the
// 5,000,000 ticks that every case up to 64 cores keeps, it timed out.
TEST(Fuzzer, TickBudgetFollowsCoreCount)
{
    QuietGuard q;
    FuzzCase c;
    for (const unsigned n : {8u, 64u}) {
        c.numCores = n;
        EXPECT_EQ(fuzzConfig(c).maxTicks, 5'000'000u) << n << " cores";
    }

    c.protocol = Protocol::broadcast;
    c.predictor = PredictorKind::none;
    c.workload.seed = 7;
    c.numCores = 256;
    c.sharerFormat = SharerFormat::limited;
    ASSERT_EQ(describeFuzzCase(c),
              "--protocol broadcast --predictor none --seed 7 "
              "--cores 256 --segments 12 --ops 24 --lines 36 --locks 4 "
              "--barriers 3 --format limited");
    const FuzzResult r = runFuzzCase(c);
    EXPECT_EQ(r.status, RunStatus::ok) << toString(r.status);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.ticks, 5'058'474u);
}

TEST(Fuzzer, NonSquareCoreCountsGetValidMesh)
{
    QuietGuard q;
    FuzzCase c =
        smallCase(Protocol::directory, PredictorKind::none, 5);
    c.numCores = 6; // 3x2 mesh, not a perfect square.
    const Config cfg = fuzzConfig(c);
    EXPECT_EQ(cfg.meshX * cfg.meshY, 6u);
    const FuzzResult r = runFuzzCase(c);
    EXPECT_EQ(r.status, RunStatus::ok);
    EXPECT_TRUE(r.violations.empty());
}
