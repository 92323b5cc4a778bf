#include "check/model_checker.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <unordered_set>

#include "coherence/snoop_protocol.hh"
#include "common/format.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "sim/task.hh"
#include "sim/thread_context.hh"

namespace spp {

namespace {

// ---------------------------------------------------------------------
// Scripted workloads
// ---------------------------------------------------------------------

/**
 * The workload catalog. Each program is deterministic per core and a
 * handful of operations long: the interesting behavior comes from the
 * explorer permuting message deliveries, not from workload size.
 *
 *  - conflict: every core writes line 0, then reads and writes
 *    line 1, barriers, and reads line 0 back. Contended ownership
 *    transfer on two lines; the workload behind the
 *    zero-violation sweeps and the inject-1 (lost invalidation)
 *    self-test.
 *  - writeback: core 0 dirties line 0 and evicts it through the
 *    2-way L2 set (lines 0/2/4 collide), so a writeback races the
 *    barrier and core 1's subsequent read of line 0. Reaches the
 *    wbNotice/read races and the inject-2 (stale memory data)
 *    path; under multicast this is the evicted-owner late-data
 *    window.
 *  - pingpong: every core alternates writes to lines 0 and 1, long
 *    enough to allocate > 61 transactions (the inject-3 unblock
 *    drop fires on txn 61 and leaks the line lock).
 *  - race: core 1 writes line 1; after a barrier core 0 reads it.
 *    Under broadcast the owner response races the speculative
 *    memory fetch (the late-data window).
 *  - wbrace: core 0 cycles dirty evictions of line 1 while core 1
 *    strides reads at it, barrier-free — some read catches the
 *    writeback buffer before the wbAck frees it (the multicast
 *    evicted-owner late-data window).
 */
enum class Wl
{
    conflict,
    writeback,
    pingpong,
    race,
    wbrace,
};

bool
wlFromName(const std::string &s, Wl &out)
{
    if (s == "conflict") { out = Wl::conflict; return true; }
    if (s == "writeback") { out = Wl::writeback; return true; }
    if (s == "pingpong") { out = Wl::pingpong; return true; }
    if (s == "race") { out = Wl::race; return true; }
    if (s == "wbrace") { out = Wl::wbrace; return true; }
    return false;
}

/**
 * The per-thread program. @p progress is shared with the scheduler's
 * state hash: one monotone op counter per core pins the (per-core
 * deterministic) program position, which also implies the barrier
 * arrival state these workloads can be in.
 */
Task
mcProgram(ThreadContext &ctx, Wl w, unsigned delay,
          std::shared_ptr<std::vector<std::uint64_t>> progress)
{
    const CoreId self = ctx.self();
    constexpr Pc pc = 0x00c0'0000;
    auto bump = [&progress, self]() { ++(*progress)[self]; };

    switch (w) {
      case Wl::conflict:
        co_await ctx.write(ctx.shared(0), pc + 0);
        bump();
        co_await ctx.read(ctx.shared(1), pc + 1);
        bump();
        co_await ctx.write(ctx.shared(1), pc + 2);
        bump();
        co_await ctx.barrier(0, pc + 3);
        bump();
        co_await ctx.read(ctx.shared(0), pc + 4);
        bump();
        break;

      case Wl::writeback:
        if (self == 0) {
            // Lines 1, 3 and 5 collide in the 2-way L2 set; the
            // third write evicts dirty line 1 into the writeback
            // buffer, and the wb transaction crosses the barrier.
            co_await ctx.write(ctx.shared(1), pc + 0);
            bump();
            co_await ctx.write(ctx.shared(3), pc + 1);
            bump();
            co_await ctx.write(ctx.shared(5), pc + 2);
            bump();
        }
        co_await ctx.barrier(0, pc + 3);
        bump();
        // Core 1 reads the evicted line. With 3 cores the roles
        // split three ways — reader 1, evicting owner 0, home of
        // line 1 (0x400001 % 3) = core 2 — and the reader sits
        // *closer* to the evicted owner than the home does, so its
        // snoop can reach the writeback buffer before the home's
        // wbAck frees it.
        if (self == 1) {
            co_await ctx.read(ctx.shared(1), pc + 4);
            bump();
        }
        break;

      case Wl::pingpong:
        // Both lines stay resident (separate L2 sets); the cross-core
        // ping-pong makes nearly every access a coherence miss, so
        // the run allocates well past 61 transactions.
        for (unsigned i = 0; i < 40; ++i) {
            co_await ctx.write(ctx.shared(0), pc + 0);
            bump();
            co_await ctx.write(ctx.shared(1), pc + 1);
            bump();
        }
        break;

      case Wl::race:
        // Line 1 so that with 3 cores the requester (0), dirty owner
        // (1) and home (line 0x400001 % 3 == 2) are three distinct
        // tiles — the geometry every ownership-transfer race needs.
        if (self == 1) {
            co_await ctx.write(ctx.shared(1), pc + 0);
            bump();
        }
        co_await ctx.barrier(0, pc + 1);
        bump();
        if (self == 0) {
            co_await ctx.read(ctx.shared(1), pc + 2);
            bump();
        }
        break;

      case Wl::wbrace:
        // Barrier-free: a barrier's own coherence traffic takes far
        // longer than a writeback, so a post-barrier read can never
        // catch the wb in flight, and a read arriving between the
        // dirtying write and the eviction downgrades the line and
        // makes the eviction clean. The only way into the ~10-tick
        // in-flight-writeback window is one read, phase-tuned by a
        // compute burst (options.raceDelay; the witness test sweeps
        // it). Geometry as in `writeback`: reader 1 sits closer to
        // the evicting owner 0 than line 1's home 2 does, so the
        // read's snoop can beat the home's wbAck to the buffer.
        if (self == 0) {
            co_await ctx.write(ctx.shared(1), pc + 0);
            bump();
            co_await ctx.write(ctx.shared(3), pc + 1);
            bump();
            co_await ctx.write(ctx.shared(5), pc + 2);
            bump();
        } else if (self == 1) {
            co_await ctx.compute(delay);
            bump();
            co_await ctx.read(ctx.shared(1), pc + 3);
            bump();
        }
        break;
    }
}

// ---------------------------------------------------------------------
// Delivery scheduling and state hashing
// ---------------------------------------------------------------------

void
hashMsg(StateHasher &h, const Msg &m)
{
    h.mix(static_cast<std::uint64_t>(m.type));
    h.mix(m.line);
    h.mix(m.src);
    h.mix(m.dst);
    h.mix(m.requester);
    h.mix(m.txn);
    for (CoreId c : m.set)
        h.mix(c);
    h.mix(~std::uint64_t{0});
    h.mix(std::uint64_t{m.isWrite} |
          std::uint64_t{m.predicted} << 1 |
          std::uint64_t{m.fromMemory} << 2 |
          std::uint64_t{m.ownerAck} << 3 |
          std::uint64_t{m.becameOwner} << 4 |
          std::uint64_t{m.hadCopy} << 5 |
          std::uint64_t{m.needData} << 6);
    h.mix(static_cast<std::uint64_t>(m.fillState));
    h.mix(m.version);
}

/**
 * The DeliveryScheduler that turns same-tick delivery order into an
 * explorable choice. Every message gets a dispatcher event at its
 * arrival tick; because the minimum message latency is the injection
 * router's pipeline (2 ticks), every message due at tick T was
 * injected before T — so when the first dispatcher at T fires, the
 * tick-T batch is complete. Each dispatcher delivers exactly one
 * ready message; the index chosen at each >= 2-candidate batch is
 * one coordinate of the schedule vector.
 */
class McScheduler : public DeliveryScheduler
{
  public:
    static constexpr std::size_t noSuppression = ~std::size_t{0};

    McScheduler(CmpSystem &sys, const ModelCheckOptions &opts,
                const std::vector<unsigned> &prefix,
                std::unordered_set<std::uint64_t> *visited,
                const std::vector<std::uint64_t> *progress,
                bool lenient)
        : sys_(sys), opts_(opts), prefix_(prefix),
          visited_(visited), progress_(progress), lenient_(lenient)
    {}

    void
    onMessage(Tick arrive, const Msg &m,
              EventQueue::Action deliver) override
    {
        pending_.push_back(
            Pending{arrive, &m, std::move(deliver)});
        sys_.eventQueue().schedule(arrive, [this]() { dispatch(); });
    }

    // Exploration record, read by the driver after the run.
    const std::vector<unsigned> &counts() const { return counts_; }
    const std::vector<unsigned> &chosen() const { return chosen_; }
    std::size_t suppressedAt() const { return suppressed_at_; }
    std::uint64_t statesHashed() const { return states_hashed_; }
    std::uint64_t statesPruned() const { return states_pruned_; }
    std::uint64_t branchesReduced() const { return branches_reduced_; }
    std::uint64_t maxBatch() const { return max_batch_; }

  private:
    struct Pending
    {
        Tick arrive;
        /** Aliases the pooled slot; valid until deliver runs. */
        const Msg *msg;
        EventQueue::Action deliver;
    };

    /**
     * Two deliveries commute unless they share a handler footprint:
     * per-core requester/peer state (same dst) or line-keyed home
     * state — locks, directory entry, memory version (same line).
     */
    static bool
    conflicts(const Msg &a, const Msg &b)
    {
        return a.dst == b.dst || a.line == b.line;
    }

    void
    dispatch()
    {
        const Tick now = sys_.eventQueue().curTick();
        // One dispatcher event exists per undelivered message, so at
        // least one message is due whenever one fires.
        ready_.clear();
        for (std::size_t i = 0; i < pending_.size(); ++i)
            if (pending_[i].arrive <= now)
                ready_.push_back(i);
        SPP_ASSERT(!ready_.empty(),
                   "dispatcher fired with no message due");
        max_batch_ = std::max<std::uint64_t>(max_batch_,
                                             ready_.size());

        // Candidates for "delivered first": with reduction, only
        // batch members that conflict with another member — an
        // independent member commutes with the whole batch, so some
        // later dispatcher at this tick delivers it unchanged.
        cand_.clear();
        if (opts_.reduce && ready_.size() > 1) {
            for (std::size_t i : ready_) {
                for (std::size_t j : ready_) {
                    if (i != j && conflicts(*pending_[i].msg,
                                            *pending_[j].msg)) {
                        cand_.push_back(i);
                        break;
                    }
                }
            }
            if (cand_.empty())
                cand_.push_back(ready_[0]);
            branches_reduced_ += ready_.size() - cand_.size();
        } else {
            cand_ = ready_;
        }

        std::size_t slot;
        if (cand_.size() < 2) {
            slot = cand_[0];
        } else {
            const std::size_t d = counts_.size();
            unsigned choice = 0;
            if (d < prefix_.size()) {
                choice = prefix_[d];
                if (choice >= cand_.size()) {
                    // Minimization probes run lenient: editing an
                    // earlier choice can shrink later batches.
                    SPP_ASSERT(lenient_,
                               "schedule choice {} out of range "
                               "(batch of {}) at depth {}",
                               choice, cand_.size(), d);
                    choice = static_cast<unsigned>(cand_.size()) - 1;
                }
            } else if (opts_.prune && visited_ != nullptr &&
                       suppressed_at_ == noSuppression) {
                // Fresh territory only: prefix-depth states were
                // inserted by the ancestor execution that spawned
                // this prefix and must not suppress it.
                ++states_hashed_;
                if (!visited_->insert(stateHash()).second) {
                    suppressed_at_ = d;
                    ++states_pruned_;
                }
            }
            counts_.push_back(static_cast<unsigned>(cand_.size()));
            chosen_.push_back(choice);
            slot = cand_[choice];
        }

        Pending p = std::move(pending_[slot]);
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(slot));
        p.deliver();
    }

    /**
     * Digest of everything that determines future behavior, time-
     * shift invariant (ticks fold relative to now). Approximations
     * are documented in DESIGN.md §11: event actions are opaque
     * (only their due-tick profile is folded — workload progress
     * counters disambiguate program position), and predictor /
     * checker-history state is excluded by design.
     */
    std::uint64_t
    stateHash() const
    {
        StateHasher h;
        const Tick now = sys_.eventQueue().curTick();
        for (std::uint64_t p : *progress_)
            h.mix(p);
        sys_.eventQueue().forEachPendingTick(
            [&](Tick when, std::size_t count) {
                h.mix(when - now);
                h.mix(count);
            });
        for (const Pending &p : pending_) {
            h.mix(p.arrive - now);
            hashMsg(h, *p.msg);
        }
        sys_.memSys().hashState(h);
        return h.value();
    }

    CmpSystem &sys_;
    const ModelCheckOptions &opts_;
    const std::vector<unsigned> &prefix_;
    std::unordered_set<std::uint64_t> *visited_;
    const std::vector<std::uint64_t> *progress_;
    const bool lenient_;

    std::vector<Pending> pending_;  ///< FIFO (insertion) order.
    std::vector<std::size_t> ready_;
    std::vector<std::size_t> cand_;

    std::vector<unsigned> counts_;
    std::vector<unsigned> chosen_;
    std::size_t suppressed_at_ = noSuppression;
    std::uint64_t states_hashed_ = 0;
    std::uint64_t states_pruned_ = 0;
    std::uint64_t branches_reduced_ = 0;
    std::uint64_t max_batch_ = 0;
};

// ---------------------------------------------------------------------
// One execution
// ---------------------------------------------------------------------

struct ExecRecord
{
    std::vector<unsigned> counts;
    std::vector<unsigned> chosen;
    std::size_t suppressedAt = McScheduler::noSuppression;
    RunStatus status = RunStatus::ok;
    std::vector<Violation> violations;
    std::string trace;
    std::string outstanding;
    std::uint64_t lateDrops = 0;
    std::uint64_t statesHashed = 0;
    std::uint64_t statesPruned = 0;
    std::uint64_t branchesReduced = 0;
    std::uint64_t maxBatch = 0;

    bool
    failed() const
    {
        return status != RunStatus::ok || !violations.empty();
    }
};

ExecRecord
runSchedule(const ModelCheckOptions &o, Wl wl,
            const std::vector<unsigned> &prefix,
            std::unordered_set<std::uint64_t> *visited, bool lenient)
{
    const Config cfg = modelCheckConfig(o);
    CmpSystem sys(cfg);

    CheckerOptions copts;
    copts.abortOnViolation = false;
    copts.watchdogTicks = o.maxTicks / 2;
    copts.dataBase = layout::sharedBase;
    ProtocolChecker checker(sys.memSys(), copts);
    sys.syncManager().addListener(&checker);

    auto progress = std::make_shared<std::vector<std::uint64_t>>(
        cfg.numCores, 0);
    McScheduler sched(sys, o, prefix, visited, progress.get(),
                      lenient);
    sys.memSys().setDeliveryScheduler(&sched);

    RunResult rr;
    ExecRecord rec;
    rec.status = sys.tryRun(
        [wl, progress, delay = o.raceDelay](ThreadContext &ctx) {
            return mcProgram(ctx, wl, delay, progress);
        },
        rr);
    if (rec.status == RunStatus::ok)
        checker.checkQuiescent();
    else
        rec.outstanding = sys.memSys().dumpOutstanding();

    rec.violations = checker.violations();
    if (rec.failed())
        rec.trace = checker.dumpTrace();
    rec.counts = sched.counts();
    rec.chosen = sched.chosen();
    rec.suppressedAt = sched.suppressedAt();
    rec.statesHashed = sched.statesHashed();
    rec.statesPruned = sched.statesPruned();
    rec.branchesReduced = sched.branchesReduced();
    rec.maxBatch = sched.maxBatch();

    const MemSys &mem = sys.memSys();
    if (auto *s = dynamic_cast<const SnoopMemSys *>(&mem))
        rec.lateDrops = s->lateDataDrops();
    return rec;
}

/**
 * Greedily shrink a failing choice vector: drop trailing defaults
 * (replay regenerates them) and try zeroing each remaining non-zero
 * coordinate, keeping changes that still fail. Probes run lenient —
 * editing an early choice can shrink later batches.
 */
void
minimizeSchedule(const ModelCheckOptions &o, Wl wl,
                 ModelCheckResult &res)
{
    auto trim = [](std::vector<unsigned> &s) {
        while (!s.empty() && s.back() == 0)
            s.pop_back();
    };
    std::vector<unsigned> best = res.schedule;
    trim(best);
    {
        // The trimmed vector must still fail (it replays the same
        // execution); re-check to harvest the final trace.
        ExecRecord rec = runSchedule(o, wl, best, nullptr, true);
        if (!rec.failed())
            return; // Defensive: keep the original vector.
    }

    unsigned budget = o.minimizeBudget;
    bool progress = true;
    while (progress && budget > 0) {
        progress = false;
        for (std::size_t i = best.size(); i-- > 0 && budget > 0;) {
            if (best[i] == 0)
                continue;
            std::vector<unsigned> cand = best;
            cand[i] = 0;
            trim(cand);
            --budget;
            ExecRecord rec = runSchedule(o, wl, cand, nullptr, true);
            ++res.executions;
            if (rec.failed()) {
                best = std::move(cand);
                progress = true;
            }
        }
    }
    res.schedule = std::move(best);
}

PredictorKind
resolvedPredictor(const ModelCheckOptions &o)
{
    if ((o.protocol == Protocol::predicted ||
         o.protocol == Protocol::multicast) &&
        o.predictor == PredictorKind::none)
        return PredictorKind::sp;
    return o.predictor;
}

Wl
requireWorkload(const std::string &name)
{
    Wl wl;
    if (!wlFromName(name, wl))
        SPP_FATAL("unknown model-check workload '{}' (expected {})",
                  name, modelCheckWorkloads());
    return wl;
}

} // namespace

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

const char *
modelCheckWorkloads()
{
    return "conflict|writeback|pingpong|race|wbrace";
}

bool
isModelCheckWorkload(const std::string &name)
{
    Wl wl;
    return wlFromName(name, wl);
}

Config
modelCheckConfig(const ModelCheckOptions &o)
{
    Config cfg;
    cfg.numCores = o.cores;
    meshFor(o.cores, cfg.meshX, cfg.meshY);
    cfg.protocol = o.protocol;
    cfg.predictor = resolvedPredictor(o);
    cfg.sharerFormat = o.format;
    // The default coarse-vector granularity can exceed a tiny core
    // count; clamp so coarse stays the maximal (one-group) over-
    // approximation instead of failing validation.
    cfg.coarseCoresPerBit = std::min(cfg.coarseCoresPerBit, o.cores);
    cfg.seed = 1;
    cfg.maxTicks = o.maxTicks;
    cfg.injectBug = o.injectBug;
    // Micro caches (1 L1 set x 2 ways, 2 L2 sets x 2 ways): shared
    // lines 0/2/4 collide in L2, so evictions and writebacks are
    // reachable within a handful of accesses while the state space
    // stays enumerable.
    cfg.l1Bytes = 128;
    cfg.l1Assoc = 2;
    cfg.l2Bytes = 256;
    cfg.l2Assoc = 2;
    // Short memory path: with the default 150-tick memory latency a
    // speculative or home memory fetch always loses (or is cancelled)
    // long before the owner/buffer response path completes, so the
    // late-data windows would be unreachable. A handful of ticks puts
    // memory data in genuine contention with peer responses.
    cfg.memLatency = o.memLatency;
    cfg.dirLatency = 2;
    // Link contention keeps per-link busy-until state in absolute
    // time; with it off, message latency is a pure function of
    // (src, dst, bytes), so states merged by the time-shift-
    // invariant hash really do behave identically. Contention is a
    // performance model, not protocol behavior.
    cfg.modelContention = false;
    return cfg;
}

ModelCheckResult
modelCheck(const ModelCheckOptions &o)
{
    const Wl wl = requireWorkload(o.workload);

    ModelCheckResult res;
    std::unordered_set<std::uint64_t> visited;
    std::vector<std::vector<unsigned>> work;
    work.push_back({});

    while (!work.empty()) {
        std::vector<unsigned> prefix = std::move(work.back());
        work.pop_back();

        ExecRecord rec = runSchedule(o, wl, prefix,
                                     o.prune ? &visited : nullptr,
                                     false);
        ++res.executions;
        res.choicePoints += rec.counts.size();
        res.statesHashed += rec.statesHashed;
        res.statesPruned += rec.statesPruned;
        res.branchesReduced += rec.branchesReduced;
        res.maxBatch = std::max(res.maxBatch, rec.maxBatch);
        res.deepestChoice = std::max(res.deepestChoice,
                                     rec.chosen.size());
        res.lateDataDrops += rec.lateDrops;

        if (rec.failed() && !res.violationFound) {
            res.violationFound = true;
            res.failStatus = rec.status;
            res.violations = rec.violations;
            res.trace = rec.trace;
            res.outstanding = rec.outstanding;
            res.schedule = rec.chosen;
            if (o.stopOnViolation)
                break;
        }

        // Register the unexplored alternatives of every fresh choice
        // point: depths below the prefix were registered by ancestor
        // executions, depths at or past a state-hash revisit were
        // covered from the first visit.
        for (std::size_t d = prefix.size(); d < rec.counts.size();
             ++d) {
            if (d >= rec.suppressedAt)
                break;
            if (o.maxDepth != 0 && d >= o.maxDepth) {
                res.hitDepthLimit = true;
                break;
            }
            for (unsigned alt = 1; alt < rec.counts[d]; ++alt) {
                std::vector<unsigned> p(
                    rec.chosen.begin(),
                    rec.chosen.begin() +
                        static_cast<std::ptrdiff_t>(d));
                p.push_back(alt);
                work.push_back(std::move(p));
            }
        }

        if (o.maxExecutions != 0 &&
            res.executions >= o.maxExecutions && !work.empty()) {
            res.hitExecLimit = true;
            break;
        }
    }

    if (res.violationFound)
        minimizeSchedule(o, wl, res);
    return res;
}

ModelCheckResult
replaySchedule(const ModelCheckOptions &o,
               const std::vector<unsigned> &schedule)
{
    const Wl wl = requireWorkload(o.workload);
    ExecRecord rec = runSchedule(o, wl, schedule, nullptr, false);

    ModelCheckResult res;
    res.executions = 1;
    res.choicePoints = rec.counts.size();
    res.branchesReduced = rec.branchesReduced;
    res.maxBatch = rec.maxBatch;
    res.deepestChoice = rec.chosen.size();
    res.lateDataDrops = rec.lateDrops;
    res.violationFound = rec.failed();
    res.failStatus = rec.status;
    res.violations = rec.violations;
    res.trace = rec.trace;
    res.outstanding = rec.outstanding;
    res.schedule = schedule;
    return res;
}

std::string
describeModelCheck(const ModelCheckOptions &o)
{
    std::string s = strfmt(
        "--protocol {} --predictor {} --format {} --cores {} "
        "--workload {}",
        toString(o.protocol), toString(resolvedPredictor(o)),
        toString(o.format), o.cores, o.workload);
    if (o.injectBug)
        s += strfmt(" --inject {}", o.injectBug);
    if (o.memLatency != ModelCheckOptions{}.memLatency)
        s += strfmt(" --mem-latency {}", o.memLatency);
    if (o.raceDelay != ModelCheckOptions{}.raceDelay)
        s += strfmt(" --race-delay {}", o.raceDelay);
    if (o.maxDepth)
        s += strfmt(" --depth {}", o.maxDepth);
    if (!o.prune)
        s += " --no-prune";
    if (!o.reduce)
        s += " --no-reduce";
    return s;
}

std::string
scheduleToText(const ModelCheckOptions &o,
               const std::vector<unsigned> &schedule)
{
    std::string s = "# spp model_check schedule v1\n";
    s += strfmt("protocol {}\n", toString(o.protocol));
    s += strfmt("predictor {}\n", toString(resolvedPredictor(o)));
    s += strfmt("format {}\n", toString(o.format));
    s += strfmt("cores {}\n", o.cores);
    s += strfmt("workload {}\n", o.workload);
    s += strfmt("inject {}\n", o.injectBug);
    s += strfmt("memlat {}\n", o.memLatency);
    s += strfmt("delay {}\n", o.raceDelay);
    s += "choices";
    for (unsigned c : schedule)
        s += strfmt(" {}", c);
    s += "\n";
    return s;
}

bool
scheduleFromText(const std::string &text, ModelCheckOptions &o,
                 std::vector<unsigned> &schedule, std::string *err)
{
    auto fail = [&](std::string msg) {
        if (err != nullptr)
            *err = std::move(msg);
        return false;
    };

    schedule.clear();
    bool saw_magic = false;
    bool saw_choices = false;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            if (line.find("spp model_check schedule v1") !=
                std::string::npos)
                saw_magic = true;
            continue;
        }
        const std::size_t sp = line.find(' ');
        const std::string key = line.substr(0, sp);
        const std::string val =
            sp == std::string::npos ? "" : line.substr(sp + 1);
        if (key == "protocol") {
            const auto p = parseProtocolName(val);
            if (!p)
                return fail("bad protocol '" + val + "'");
            o.protocol = *p;
        } else if (key == "predictor") {
            const auto k = parsePredictorName(val);
            if (!k)
                return fail("bad predictor '" + val + "'");
            o.predictor = *k;
        } else if (key == "format") {
            const auto f = parseSharerFormatName(val);
            if (!f)
                return fail("bad format '" + val + "'");
            o.format = *f;
        } else if (key == "cores") {
            const unsigned long n = std::strtoul(val.c_str(),
                                                 nullptr, 10);
            if (n == 0 || n > 64)
                return fail("bad core count '" + val + "'");
            o.cores = static_cast<unsigned>(n);
        } else if (key == "workload") {
            if (!isModelCheckWorkload(val))
                return fail("bad workload '" + val + "'");
            o.workload = val;
        } else if (key == "inject") {
            o.injectBug = static_cast<unsigned>(
                std::strtoul(val.c_str(), nullptr, 10));
        } else if (key == "memlat") {
            const unsigned long n = std::strtoul(val.c_str(),
                                                 nullptr, 10);
            if (n == 0)
                return fail("bad memory latency '" + val + "'");
            o.memLatency = n;
        } else if (key == "delay") {
            o.raceDelay = static_cast<unsigned>(
                std::strtoul(val.c_str(), nullptr, 10));
        } else if (key == "choices") {
            saw_choices = true;
            std::size_t i = 0;
            while (i < val.size()) {
                while (i < val.size() && val[i] == ' ')
                    ++i;
                if (i >= val.size())
                    break;
                if (val[i] < '0' || val[i] > '9')
                    return fail("bad choice list '" + val + "'");
                unsigned c = 0;
                while (i < val.size() && val[i] >= '0' &&
                       val[i] <= '9') {
                    c = c * 10 + static_cast<unsigned>(val[i] - '0');
                    ++i;
                }
                schedule.push_back(c);
            }
        } else {
            return fail("unknown key '" + key + "'");
        }
    }
    if (!saw_magic)
        return fail("missing '# spp model_check schedule v1' header");
    if (!saw_choices)
        return fail("missing 'choices' line");
    return true;
}

} // namespace spp
