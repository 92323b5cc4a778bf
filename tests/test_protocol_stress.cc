/**
 * @file
 * Randomized cross-protocol stress test (property-based): a swarm of
 * concurrent reads/writes over a small line pool, parameterized over
 * (protocol, predictor, seed). After draining, the coherence
 * invariants must hold, reads must observe committed versions
 * monotonically per line, and the home directory (directory and
 * multicast engines) must match the caches.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "harness.hh"

using namespace spp;
using namespace spp::test;

namespace {

struct StressParam
{
    Protocol protocol;
    PredictorKind predictor;
    std::uint64_t seed;

    friend std::ostream &
    operator<<(std::ostream &os, const StressParam &p)
    {
        return os << toString(p.protocol) << '_'
                  << toString(p.predictor) << "_s" << p.seed;
    }
};

class ProtocolStress : public ::testing::TestWithParam<StressParam>
{};

} // namespace

TEST_P(ProtocolStress, RandomSwarmKeepsInvariants)
{
    const StressParam param = GetParam();
    Config cfg = ProtoHarness::smallConfig();
    cfg.protocol = param.protocol;
    cfg.predictor = param.predictor;
    ProtoHarness h(cfg);
    Rng rng(param.seed);

    // A small pool of lines to maximize conflict probability.
    constexpr unsigned pool = 12;
    constexpr Addr base = 0x40000;

    // Per-line highest version ever observed by any reader; reads
    // must never go backwards once a version was globally visible.
    std::map<Addr, std::uint64_t> floor;

    // Drive several waves of concurrent random accesses. Each core
    // issues one access per wave (in-order cores).
    unsigned outstanding_checks = 0;
    for (unsigned wave = 0; wave < 60; ++wave) {
        std::vector<std::tuple<CoreId, Addr, bool>> reqs;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            const Addr line =
                base + rng.below(pool) * cfg.lineBytes;
            const bool write = rng.chance(0.35);
            reqs.emplace_back(c, line, write);
        }
        auto outs = h.accessAll(reqs);
        // Within a wave accesses are concurrent (unordered); reads
        // are checked against the floor of *previous* waves only,
        // then the wave's observations merge into the floor.
        std::map<Addr, std::uint64_t> wave_max;
        for (std::size_t i = 0; i < outs.size(); ++i) {
            const auto &[core, line, write] = reqs[i];
            (void)core;
            const std::uint64_t v = outs[i].dataVersion;
            if (!write) {
                auto it = floor.find(line);
                if (it != floor.end()) {
                    EXPECT_GE(v, it->second)
                        << "stale read of line " << line
                        << " in wave " << wave;
                    ++outstanding_checks;
                }
            }
            wave_max[line] = std::max(wave_max[line], v);
        }
        for (const auto &[line, v] : wave_max)
            floor[line] = std::max(floor[line], v);
        ASSERT_TRUE(h.sys->drained()) << "wave " << wave;
    }
    EXPECT_GT(outstanding_checks, 0u);

    h.sys->checkCoherence();
    h.sys->checkDirectory();
    EXPECT_GT(h.sys->stats().communicatingMisses.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Swarm, ProtocolStress,
    ::testing::Values(
        StressParam{Protocol::directory, PredictorKind::none, 1},
        StressParam{Protocol::directory, PredictorKind::none, 2},
        StressParam{Protocol::directory, PredictorKind::none, 3},
        StressParam{Protocol::broadcast, PredictorKind::none, 1},
        StressParam{Protocol::broadcast, PredictorKind::none, 2},
        StressParam{Protocol::broadcast, PredictorKind::none, 3},
        StressParam{Protocol::predicted, PredictorKind::sp, 1},
        StressParam{Protocol::predicted, PredictorKind::sp, 2},
        StressParam{Protocol::predicted, PredictorKind::sp, 3},
        StressParam{Protocol::predicted, PredictorKind::addr, 1},
        StressParam{Protocol::predicted, PredictorKind::addr, 2},
        StressParam{Protocol::predicted, PredictorKind::inst, 1},
        StressParam{Protocol::predicted, PredictorKind::inst, 2},
        StressParam{Protocol::predicted, PredictorKind::uni, 1},
        StressParam{Protocol::predicted, PredictorKind::uni, 2},
        StressParam{Protocol::multicast, PredictorKind::sp, 1},
        StressParam{Protocol::multicast, PredictorKind::sp, 2},
        StressParam{Protocol::multicast, PredictorKind::uni, 1}),
    [](const auto &info) {
        std::ostringstream os;
        os << info.param;
        return os.str();
    });
