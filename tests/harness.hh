/**
 * @file
 * Shared test harness: drives a coherent memory system directly
 * (without the workload layer) so protocol scenarios can be scripted
 * access by access, and provides small helpers used across tests.
 */

#ifndef SPP_TESTS_HARNESS_HH
#define SPP_TESTS_HARNESS_HH

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "coherence/directory_protocol.hh"
#include "common/config.hh"
#include "core/sp_predictor.hh"
#include "event/event_queue.hh"
#include "noc/mesh.hh"

namespace spp {
namespace test {

/** A small standalone machine: queue + mesh + memory system. */
class ProtoHarness
{
  public:
    explicit ProtoHarness(Config cfg = smallConfig())
        : cfg_(std::move(cfg))
    {
        cfg_.validate();
        mesh = std::make_unique<Mesh>(cfg_, eq);
        predictor = makePredictor(cfg_);
        sp = dynamic_cast<SpPredictor *>(predictor.get());
        sys = makeMemSys(cfg_, eq, *mesh, predictor.get());
    }

    /** 16-core paper configuration with a small L2 (fast tests). */
    static Config
    smallConfig()
    {
        Config cfg;
        cfg.l2Bytes = 64 * 1024;
        cfg.l1Bytes = 4 * 1024;
        return cfg;
    }

    /** Issue one access and drain the system; returns the outcome. */
    AccessOutcome
    access(CoreId core, Addr addr, bool is_write, Pc pc = 0x100)
    {
        std::optional<AccessOutcome> out;
        sys->access(core, addr, is_write, pc,
                    [&](const AccessOutcome &o) { out = o; });
        eq.run();
        EXPECT_TRUE(out.has_value());
        return out.value_or(AccessOutcome{});
    }

    /** Issue several concurrent accesses, then drain. */
    std::vector<AccessOutcome>
    accessAll(
        const std::vector<std::tuple<CoreId, Addr, bool>> &reqs,
        Pc pc = 0x200)
    {
        std::vector<AccessOutcome> outs(reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const auto &[core, addr, write] = reqs[i];
            sys->access(core, addr, write, pc,
                        [&outs, i](const AccessOutcome &o) {
                            outs[i] = o;
                        });
        }
        eq.run();
        return outs;
    }

    DirectoryMemSys *
    dir()
    {
        return dynamic_cast<DirectoryMemSys *>(sys.get());
    }

    /** State of @p line in @p core's L2 (invalid if absent). */
    Mesif
    l2State(CoreId core, Addr line) const
    {
        const CacheLine *l = sys->l2(core).peek(line);
        return l ? l->state : Mesif::invalid;
    }

    const Config &config() const { return cfg_; }

    EventQueue eq;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<DestinationPredictor> predictor;
    SpPredictor *sp = nullptr; ///< Borrowed from predictor when SP.
    std::unique_ptr<MemSys> sys;

  private:
    Config cfg_;
};

} // namespace test
} // namespace spp

#endif // SPP_TESTS_HARNESS_HH
