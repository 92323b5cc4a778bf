/**
 * @file
 * Shared test harness: drives a coherent memory system directly
 * (without the workload layer) so protocol scenarios can be scripted
 * access by access, and provides small helpers used across tests.
 */

#ifndef SPP_TESTS_HARNESS_HH
#define SPP_TESTS_HARNESS_HH

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "coherence/directory_protocol.hh"
#include "common/config.hh"
#include "core/sp_predictor.hh"
#include "event/event_queue.hh"
#include "noc/mesh.hh"

namespace spp {
namespace test {

/**
 * The harness's AccessCompletion: per core, the last finished
 * access's outcome and an optional follow-up that runs inside the
 * completing event (where a core issues its next access).
 */
struct CoreRecorder : AccessCompletion
{
    using Then = std::function<void()>;

    explicit CoreRecorder(unsigned cores) : last(cores), then(cores) {}

    void
    accessDone(CoreId core, const AccessOutcome &out) override
    {
        last[core] = out;
        if (Then fn = std::exchange(then[core], nullptr))
            fn();
    }

    std::vector<std::optional<AccessOutcome>> last;
    std::vector<Then> then;
};

/** A small standalone machine: queue + mesh + memory system. */
class ProtoHarness
{
  public:
    explicit ProtoHarness(Config cfg = smallConfig())
        : cfg_(std::move(cfg)), done_(cfg_.numCores)
    {
        cfg_.validate();
        mesh = std::make_unique<Mesh>(cfg_, eq);
        predictor = makePredictor(cfg_);
        sp = dynamic_cast<SpPredictor *>(predictor.get());
        sys = makeMemSys(cfg_, eq, *mesh, predictor.get(), done_);
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

    /** Issue one access without draining; @p then (if any) runs
     * inside the event that completes it. */
    void
    issue(CoreId core, Addr addr, bool is_write, Pc pc,
          CoreRecorder::Then then = {})
    {
        done_.last[core].reset();
        done_.then[core] = std::move(then);
        sys->access(core, addr, is_write, pc);
    }

    /** Outcome of @p core's last issued access, once it finished. */
    AccessOutcome
    outcome(CoreId core) const
    {
        EXPECT_TRUE(done_.last[core].has_value());
        return done_.last[core].value_or(AccessOutcome{});
    }

    /** Issue one access and drain the system; returns the outcome. */
    AccessOutcome
    access(CoreId core, Addr addr, bool is_write, Pc pc = 0x100)
    {
        issue(core, addr, is_write, pc);
        eq.run();
        return outcome(core);
    }

    /** Issue concurrent accesses (one per core), then drain. */
    std::vector<AccessOutcome>
    accessAll(
        const std::vector<std::tuple<CoreId, Addr, bool>> &reqs,
        Pc pc = 0x200)
    {
        for (const auto &[core, addr, write] : reqs)
            issue(core, addr, write, pc);
        eq.run();
        std::vector<AccessOutcome> outs;
        for (const auto &[core, addr, write] : reqs)
            outs.push_back(outcome(core));
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
    CoreRecorder done_;
};

} // namespace test
} // namespace spp

#endif // SPP_TESTS_HARNESS_HH
