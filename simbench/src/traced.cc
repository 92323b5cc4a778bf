/**
 * @file
 * Traced run of one cell.
 *
 * 1. An untraced reference run (spans around the constructor and
 *    run only).
 * 2. A live run with the benchmark's observers attached through the
 *    public hooks: access observer, trace sink, sync listener,
 *    attribution sink and delivery scheduler. The scheduler puts each
 *    delivery at its arrival tick in unchanged order, keeping the
 *    action in a side table (an EventQueue::Action cannot hold
 *    another), and times it.
 * 3. Replays of the captured inputs into standalone layer instances,
 *    timed from outside: the send->arrival schedule through a bare
 *    EventQueue, the packets through Mesh::inject, each core's line
 *    stream through CacheArray, and the sync points and miss outcomes
 *    through an SpPredictor; plus a replayThreadFn run of the
 *    recorded ops. Where the model allows, each replay must match
 *    the live run exactly.
 */

#include "traced.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/sp_predictor.hh"
#include "mem/cache_array.hh"
#include "noc/mesh.hh"
#include "service/result_store.hh"
#include "telemetry/manifest.hh"
#include "trace/format.hh"
#include "trace/replay.hh"

namespace simbench {

namespace {

constexpr std::size_t histCap = 1u << 16;

void
histAdd(std::vector<std::uint64_t> &h, std::uint64_t v)
{
    if (h.empty())
        h.resize(histCap, 0);
    ++h[std::min<std::uint64_t>(v, histCap - 1)];
}

double
histPercentile(const std::vector<std::uint64_t> &h, double p)
{
    std::uint64_t n = 0;
    for (const std::uint64_t c : h)
        n += c;
    if (n == 0)
        return 0;
    const auto rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(n - 1));
    std::uint64_t seen = 0;
    for (std::size_t v = 0; v < h.size(); ++v) {
        seen += h[v];
        if (seen > rank)
            return static_cast<double>(v);
    }
    return static_cast<double>(h.size() - 1);
}

/** The cores of @p s packed into @p words 64-bit words. */
void
packSet(const spp::CoreSet &s, unsigned words,
        std::vector<std::uint64_t> &out)
{
    const std::size_t base = out.size();
    out.resize(base + words, 0);
    for (const spp::CoreId c : s)
        out[base + c / 64] |= std::uint64_t{1} << (c % 64);
}

bool
sameSet(const spp::CoreSet &s, const std::uint64_t *words,
        unsigned n_words)
{
    unsigned n = 0;
    for (const spp::CoreId c : s) {
        if (c / 64 >= n_words ||
            !((words[c / 64] >> (c % 64)) & 1))
            return false;
        ++n;
    }
    unsigned m = 0;
    for (unsigned w = 0; w < n_words; ++w)
        m += static_cast<unsigned>(__builtin_popcountll(words[w]));
    return n == m;
}

spp::CoreSet
unpackSet(const std::uint64_t *words, unsigned n_words)
{
    spp::CoreSet s;
    for (unsigned w = 0; w < n_words; ++w)
        for (std::uint64_t bits = words[w]; bits; bits &= bits - 1)
            s.set(w * 64 +
                  static_cast<unsigned>(__builtin_ctzll(bits)));
    return s;
}

/**
 * The benchmark's observers of one live run. Every hook that runs
 * inside a delivery times itself, so delivery time can exclude it.
 */
class LiveProbe final : public spp::DeliveryScheduler,
                        public spp::AttributionSink,
                        public spp::SyncListener,
                        public spp::TraceSink
{
  public:
    struct Packet
    {
        spp::Tick send;
        spp::Tick arrive;
        std::uint32_t src;
        std::uint32_t dst;
        std::uint32_t bytes;
        std::int32_t parent;    ///< Delivery it was sent from, or -1.
    };

    struct Miss
    {
        spp::Addr line;
        spp::Pc pc;
        std::uint32_t core;
        bool isWrite;
        bool communicating;
        bool sufficient;
        bool predValid;
        spp::PredSource source;
    };

    /** One SP-stream entry: a sync point or a completed miss. */
    struct SpEvent
    {
        bool sync;
        std::uint32_t core;
        std::uint32_t index;
    };

    LiveProbe(const spp::Config &cfg, spp::EventQueue &eq, SpanLog &log,
              unsigned cell_id)
        : recorder(cfg.numCores), lines(cfg.numCores), cfg_(cfg),
          eq_(eq), log_(log), cell_id_(cell_id),
          words_((cfg.numCores + 63) / 64)
    {}

    void
    attach(spp::CmpSystem &sys)
    {
        sys.setAccessObserver([this](spp::CoreId c, spp::Addr a,
                                     spp::Pc pc,
                                     const spp::AccessOutcome &o) {
            onAccess(c, a, pc, o);
        });
        sys.setTraceSink(this);
        sys.syncManager().addListener(this);
        sys.memSys().setAttributionSink(this);
        sys.memSys().setDeliveryScheduler(this);
    }

    void setRunSpan(int id) { run_span_ = id; }

    // --- DeliveryScheduler ---
    void
    onMessage(spp::Tick arrive, const spp::Msg &m,
              spp::EventQueue::Action deliver) override
    {
        HookTimer timer(*this);
        packets.push_back({eq_.curTick(), arrive, m.src, m.dst,
                           pending_bytes_, current_});
        std::uint32_t slot;
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(actions_.size());
            actions_.emplace_back();
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        actions_[slot] = std::move(deliver);
        const auto pkt = static_cast<std::int32_t>(packets.size() - 1);
        eq_.schedule(arrive,
                     [this, slot, pkt]() { runDelivery(slot, pkt); });
    }

    // --- AttributionSink ---
    void
    onMissResolved(spp::CoreId, spp::Addr, const spp::AccessOutcome &,
                   std::uint64_t) override
    {
        HookTimer timer(*this);
        ++resolved;
    }

    void
    onMessageSent(spp::CoreId, spp::Addr, unsigned bytes) override
    {
        HookTimer timer(*this);
        pending_bytes_ = bytes;
    }

    // --- SyncListener ---
    void
    onSyncPoint(spp::CoreId core, const spp::SyncPointInfo &info) override
    {
        HookTimer timer(*this);
        spEvents.push_back({true, core,
                            static_cast<std::uint32_t>(syncs.size())});
        syncs.push_back(info);
    }

    // --- TraceSink ---
    void
    record(spp::CoreId core, const spp::TraceOp &op) override
    {
        HookTimer timer(*this);
        recorder.record(core, op);
    }

    void
    onAccess(spp::CoreId core, spp::Addr addr, spp::Pc pc,
             const spp::AccessOutcome &o)
    {
        HookTimer timer(*this);
        const spp::Addr line = addr & ~spp::Addr{cfg_.lineBytes - 1u};
        lines[core].push_back(line | (o.isWrite ? 1u : 0u));
        if (!o.miss())
            return;
        spEvents.push_back(
            {false, core, static_cast<std::uint32_t>(misses.size())});
        misses.push_back({line, pc, core, o.isWrite, o.communicating,
                          o.predSufficient, o.pred.valid(),
                          o.pred.source});
        packSet(o.servicedBy, words_, sets);
        packSet(o.pred.targets, words_, sets);
        histAdd(latencyHist, o.latency());
    }

    unsigned words() const { return words_; }

    std::vector<Packet> packets;
    std::vector<Miss> misses;
    std::vector<std::uint64_t> sets;    ///< servicedBy, pred per miss.
    std::vector<spp::SyncPointInfo> syncs;
    std::vector<SpEvent> spEvents;
    std::vector<std::uint64_t> latencyHist;
    spp::TraceRecorder recorder;
    /** Per core: every accessed line, low bit = write. */
    std::vector<std::vector<spp::Addr>> lines;
    std::uint64_t resolved = 0;
    std::uint64_t deliveries = 0;
    double deliveryRawS = 0;
    double hookInDeliveryS = 0;

  private:
    /** Times a hook when it runs inside a delivery. */
    class HookTimer
    {
      public:
        explicit HookTimer(LiveProbe &p) : p_(p)
        {
            if (p_.current_ >= 0)
                t0_ = Clock::now();
        }
        ~HookTimer()
        {
            if (p_.current_ >= 0)
                p_.hookInDeliveryS += since(t0_);
        }
        HookTimer(const HookTimer &) = delete;
        HookTimer &operator=(const HookTimer &) = delete;

      private:
        LiveProbe &p_;
        Clock::time_point t0_{};
    };

    /** Logged individually per cell; the rest are aggregated. */
    static constexpr std::uint64_t sampledDeliveries = 64;

    void
    runDelivery(std::uint32_t slot, std::int32_t pkt)
    {
        // Move the action out first: the delivery sends messages,
        // which may grow the side table.
        spp::EventQueue::Action action = std::move(actions_[slot]);
        free_.push_back(slot);
        const std::int32_t outer = current_;
        current_ = pkt;
        const double start_us = log_.nowUs();
        action();
        const double end_us = log_.nowUs();
        current_ = outer;
        ++deliveries;
        const double s = (end_us - start_us) * 1e-6;
        deliveryRawS += s;
        if (deliveries <= sampledDeliveries)
            log_.add("coherence.delivery", run_span_, cell_id_, 0,
                     start_us, end_us);
        else
            unlogged_s_ += s;
    }

  public:
    /** Charge the un-logged deliveries to the run span. */
    void
    flushAggregate()
    {
        if (deliveries > sampledDeliveries)
            log_.aggregate(run_span_, "coherence.delivery",
                           unlogged_s_ * 1e6,
                           deliveries - sampledDeliveries);
    }

  private:
    const spp::Config &cfg_;
    spp::EventQueue &eq_;
    SpanLog &log_;
    unsigned cell_id_;
    unsigned words_;
    int run_span_ = SpanLog::noParent;
    std::int32_t current_ = -1;
    unsigned pending_bytes_ = 0;
    std::vector<spp::EventQueue::Action> actions_;
    std::vector<std::uint32_t> free_;
    double unlogged_s_ = 0;
};

/**
 * Replay the captured send->arrival schedule through a bare
 * EventQueue: each delivery schedules the arrivals of the messages
 * it sent; root sends (from outside any delivery) are fed in at
 * their send ticks. Returns the events executed.
 */
std::uint64_t
replayEvents(const std::vector<LiveProbe::Packet> &pkts)
{
    const std::size_t n = pkts.size();
    std::vector<std::uint32_t> begin(n + 1, 0), kids;
    std::vector<std::uint32_t> roots;
    for (const LiveProbe::Packet &p : pkts)
        if (p.parent >= 0)
            ++begin[static_cast<std::size_t>(p.parent) + 1];
    for (std::size_t i = 0; i < n; ++i)
        begin[i + 1] += begin[i];
    kids.resize(begin[n]);
    std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
        if (pkts[i].parent >= 0)
            kids[fill[static_cast<std::size_t>(pkts[i].parent)]++] =
                static_cast<std::uint32_t>(i);
        else
            roots.push_back(static_cast<std::uint32_t>(i));
    }

    struct Replay
    {
        spp::EventQueue eq;
        const std::vector<LiveProbe::Packet> &pkts;
        const std::vector<std::uint32_t> &begin;
        const std::vector<std::uint32_t> &kids;
        const std::vector<std::uint32_t> &roots;
        std::size_t next_root = 0;

        void
        arrive(std::uint32_t p)
        {
            for (std::uint32_t k = begin[p]; k < begin[p + 1]; ++k) {
                const std::uint32_t c = kids[k];
                eq.schedule(pkts[c].arrive, [this, c]() { arrive(c); });
            }
        }

        void
        feed()
        {
            const spp::Tick now = eq.curTick();
            while (next_root < roots.size() &&
                   pkts[roots[next_root]].send == now) {
                const std::uint32_t r = roots[next_root++];
                eq.schedule(pkts[r].arrive, [this, r]() { arrive(r); });
            }
            if (next_root < roots.size())
                eq.schedule(pkts[roots[next_root]].send,
                            [this]() { feed(); });
        }
    };
    auto rp = std::make_unique<Replay>(
        Replay{{}, pkts, begin, kids, roots, 0});
    if (!roots.empty())
        rp->eq.schedule(pkts[roots[0]].send, [&rp]() { rp->feed(); });
    rp->eq.run();
    return rp->eq.executed();
}

/**
 * Replay the captured packets through a fresh Mesh at their send
 * ticks. Returns the first index whose arrival differs from the
 * live one, or pkts.size() when all match. @p inject_s receives the
 * injection time with the clock advancing subtracted.
 */
std::size_t
replayNoc(const spp::Config &cfg,
          const std::vector<LiveProbe::Packet> &pkts, double &inject_s)
{
    std::vector<spp::Tick> arrivals(pkts.size());
    auto advance_only = [&pkts] {
        auto eq = std::make_unique<spp::EventQueue>();
        const Clock::time_point t0 = Clock::now();
        for (const LiveProbe::Packet &p : pkts)
            if (p.send > eq->curTick()) {
                eq->schedule(p.send, [] {});
                eq->step();
            }
        return since(t0);
    };
    auto eq = std::make_unique<spp::EventQueue>();
    spp::Mesh mesh(cfg, *eq);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < pkts.size(); ++i) {
        const LiveProbe::Packet &p = pkts[i];
        if (p.send > eq->curTick()) {
            eq->schedule(p.send, [] {});
            eq->step();
        }
        spp::Packet pk;
        pk.src = p.src;
        pk.dst = p.dst;
        pk.bytes = p.bytes;
        arrivals[i] = mesh.inject(pk);
    }
    const double with_inject = since(t0);
    inject_s = std::max(0.0, with_inject - advance_only());
    for (std::size_t i = 0; i < pkts.size(); ++i)
        if (arrivals[i] != pkts[i].arrive)
            return i;
    return pkts.size();
}

/** Replay each core's line stream through standalone L1/L2 arrays. */
double
replayMem(const spp::Config &cfg,
          const std::vector<std::vector<spp::Addr>> &lines,
          LayerTotals &t)
{
    double seconds = 0;
    for (const std::vector<spp::Addr> &stream : lines) {
        spp::CacheArray l1(cfg.l1Bytes, cfg.l1Assoc, cfg.lineBytes);
        spp::CacheArray l2(cfg.l2Bytes, cfg.l2Assoc, cfg.lineBytes);
        spp::CacheLine victim;
        std::uint64_t h1 = 0, l2n = 0, h2 = 0;
        const Clock::time_point t0 = Clock::now();
        for (const spp::Addr e : stream) {
            const spp::Addr line = e & ~spp::Addr{1};
            const spp::Mesif st =
                (e & 1) ? spp::Mesif::modified : spp::Mesif::exclusive;
            if (spp::CacheLine *l = l1.lookup(line)) {
                ++h1;
                if (e & 1)
                    l->state = st;
                continue;
            }
            ++l2n;
            if (spp::CacheLine *l = l2.lookup(line)) {
                ++h2;
                if (e & 1)
                    l->state = st;
            } else {
                l2.allocate(line, victim)->state = st;
            }
            l1.allocate(line, victim)->state = st;
        }
        seconds += since(t0);
        t.replayLookups += stream.size() + l2n;
        t.replayL1Hits += h1;
        t.replayL2Lookups += l2n;
        t.replayL2Hits += h2;
    }
    return seconds;
}

/**
 * Replay sync points and miss outcomes, in live order, through a
 * standalone SpPredictor. With @p check, count predictions that
 * differ from the live ones (SP cells only). Returns the calls made.
 */
std::uint64_t
replaySp(const spp::Config &cfg, const LiveProbe &probe, bool check,
         std::uint64_t &mismatches)
{
    spp::SpPredictor sp(cfg, cfg.numCores);
    const unsigned w = probe.words();
    std::uint64_t calls = 0;
    for (const LiveProbe::SpEvent &ev : probe.spEvents) {
        if (ev.sync) {
            sp.onSyncPoint(ev.core, probe.syncs[ev.index]);
            ++calls;
            continue;
        }
        const LiveProbe::Miss &m = probe.misses[ev.index];
        const std::uint64_t *serviced = &probe.sets[ev.index * 2u * w];
        const std::uint64_t *predicted = serviced + w;
        spp::PredictionQuery q;
        q.core = m.core;
        q.line = m.line;
        q.pc = m.pc;
        q.isWrite = m.isWrite;
        spp::Prediction p = sp.predict(q);
        p.targets.reset(m.core);
        if (check &&
            (p.valid() != m.predValid ||
             (p.valid() && (p.source != m.source ||
                            !sameSet(p.targets, predicted, w)))))
            ++mismatches;
        spp::Prediction live;
        if (m.predValid) {
            live.targets = unpackSet(predicted, w);
            live.source = m.source;
        }
        if (m.communicating) {
            sp.trainResponse(q, unpackSet(serviced, w));
            ++calls;
        }
        sp.feedback(m.core, live, m.communicating, m.sufficient);
        calls += 2;
    }
    return calls;
}

} // namespace

void
traceCell(const Cell &cell, double scale, unsigned cell_id,
          const std::string &store_dir, SpanLog &log, int parent,
          LayerTotals &t, Tally &tally, DigestBook *book, bool check)
{
    const spp::CmpSystem::ThreadFn fn = liveThreadFn(cell.program, scale);
    ++t.cells;
    ++tally.attempted;
    // A cell is one operation: it fails once, with its first reason.
    struct Outcome
    {
        Tally &tally;
        const std::string &label;
        std::string why;
        ~Outcome()
        {
            if (!why.empty())
                tally.fail(label + ": " + why);
        }
    } outcome{tally, cell.label, ""};
    auto failed = [&outcome](const std::string &why) {
        if (outcome.why.empty())
            outcome.why = why;
    };

    // 1. Untraced reference.
    spp::RunResult ref;
    {
        const int s = log.open("cell.untraced", parent, cell_id);
        const int a = log.open("sim.setup", s, cell_id);
        auto sys = std::make_unique<spp::CmpSystem>(cell.cfg);
        log.close(a);
        t.setupS += log.seconds(a);
        const int b = log.open("sim.run", s, cell_id);
        const spp::RunStatus st = sys->tryRun(fn, ref);
        log.close(b);
        t.runS += log.seconds(b);
        log.close(s);
        if (st != spp::RunStatus::ok)
            return failed(spp::toString(st));
    }
    const std::uint64_t want = statsDigest(ref);
    if (book) {
        const std::string err = book->check(cell.label, want);
        if (!err.empty())
            failed(err);
    }

    // 2. Live run with hooks.
    auto sys = std::make_unique<spp::CmpSystem>(cell.cfg);
    LiveProbe probe(sys->config(), sys->eventQueue(), log, cell_id);
    probe.attach(*sys);
    spp::RunResult live;
    {
        const int s = log.open("cell.traced", parent, cell_id);
        const int b = log.open("sim.run", s, cell_id);
        probe.setRunSpan(b);
        const spp::RunStatus st = sys->tryRun(fn, live);
        log.close(b);
        t.tracedRunS += log.seconds(b);
        probe.flushAggregate();
        log.close(s);
        if (st != spp::RunStatus::ok)
            return failed(std::string("traced run ") +
                          spp::toString(st));
    }
    if (check) {
        sys->memSys().checkCoherence();
        if (spp::DirectoryMemSys *dir = sys->directory())
            dir->checkDirectory();
    }
    if (statsDigest(live) != want)
        failed("traced run's modelled statistics differ from the "
               "untraced run's");
    if (probe.resolved != live.mem.misses.value() ||
        probe.misses.size() != probe.resolved)
        failed("hooks saw " + std::to_string(probe.resolved) +
               " resolved and " + std::to_string(probe.misses.size()) +
               " observed misses; the statistics count " +
               std::to_string(live.mem.misses.value()));
    t.deliveries += probe.deliveries;
    t.deliveryRawS += probe.deliveryRawS;
    t.deliveryS += probe.deliveryRawS - probe.hookInDeliveryS;
    {
        const spp::MemSys &mem = sys->memSys();
        t.poolAllocs += mem.msgPoolStats().allocated +
            mem.wbPoolStats().allocated + mem.txnPoolStats().allocated;
        std::uint64_t busy = 0;
        for (const std::uint64_t b : sys->mesh().linkBusyTicks())
            busy = std::max(busy, b);
        if (live.ticks > 0)
            t.linkBusyMaxPct = std::max(
                t.linkBusyMaxPct, 100.0 * static_cast<double>(busy) /
                    static_cast<double>(live.ticks));
    }
    const bool sp_cell = sys->spPredictor() != nullptr;
    sys.reset();

    t.accesses += live.mem.accesses.value();
    t.l1Hits += live.mem.l1Hits.value();
    t.l2Hits += live.mem.l2Hits.value();
    t.misses += live.mem.misses.value();
    t.commMisses += live.mem.communicatingMisses.value();
    t.snoopLookups += live.mem.snoopLookups.value();
    t.events += live.eventsExecuted;
    t.packets += live.noc.packets.value();
    t.hops += live.noc.routerTraversals.value() - live.noc.packets.value();
    t.predAttempted += live.mem.predictionsAttempted.value();
    t.predSufficient += live.mem.predictionsSufficient.value();
    t.predWasteBytes += live.mem.predWasteBytesComm.value() +
        live.mem.predWasteBytesNonComm.value();
    t.syncPoints += live.sync.syncPoints.value();
    t.lockAcquisitions += live.sync.lockAcquisitions.value();
    t.lockContended += live.sync.lockContended.value();
    t.ops += probe.recorder.data.totalOps();
    if (sp_cell) {
        const auto comm = live.mem.communicatingMisses.value();
        t.accuracySum += comm ? 100.0 *
                static_cast<double>(
                    live.mem.predictionsSufficient.value()) /
                static_cast<double>(comm)
                              : 0.0;
        ++t.accuracyCells;
    }
    {
        // Modelled queueing: arrival - send - zero-load latency.
        spp::EventQueue eq;
        const spp::Mesh mesh(cell.cfg, eq);
        for (const LiveProbe::Packet &p : probe.packets) {
            const spp::Tick zl = mesh.zeroLoadLatency(
                mesh.hops(p.src, p.dst), p.bytes);
            histAdd(t.queueHist, p.arrive - p.send - zl);
        }
    }
    for (std::size_t v = 0; v < probe.latencyHist.size(); ++v)
        if (probe.latencyHist[v]) {
            if (t.latencyHist.empty())
                t.latencyHist.resize(histCap, 0);
            t.latencyHist[v] += probe.latencyHist[v];
        }

    // 3a. replayThreadFn reproduces the live cell.
    {
        auto data = std::make_shared<spp::TraceData>(
            std::move(probe.recorder.data));
        auto rsys = std::make_unique<spp::CmpSystem>(cell.cfg);
        spp::RunResult rr;
        const int b = log.open("workload.replay_run", parent, cell_id);
        const spp::RunStatus st =
            rsys->tryRun(spp::replayThreadFn(data), rr);
        log.close(b);
        t.replayRunS += log.seconds(b);
        if (st != spp::RunStatus::ok || statsDigest(rr) != want)
            failed("replayThreadFn run differs from the live run");
    }

    // 3b. Event queue: the captured send->arrival schedule.
    {
        const int b = log.open("event.replay", parent, cell_id);
        t.eventReplayEvents += replayEvents(probe.packets);
        log.close(b);
        t.eventReplayS += log.seconds(b);
    }

    // 3c. NoC: captured packets through Mesh::inject.
    {
        const int b = log.open("noc.replay", parent, cell_id);
        double inject_s = 0;
        const std::size_t bad = replayNoc(cell.cfg, probe.packets, inject_s);
        log.close(b);
        t.nocReplayS += inject_s;
        if (bad != probe.packets.size())
            failed("NoC replay arrival differs at packet " +
                   std::to_string(bad));
    }

    // 3d. Cache arrays: each core's line stream.
    {
        const int b = log.open("mem.replay", parent, cell_id);
        t.memReplayS += replayMem(cell.cfg, probe.lines, t);
        log.close(b);
    }

    // 3e. Predictor: sync points and miss outcomes. The checking
    // pass is untimed; the timed pass repeats it without checks.
    {
        std::uint64_t mismatches = 0;
        const std::uint64_t calls =
            replaySp(cell.cfg, probe, sp_cell, mismatches);
        if (sp_cell && mismatches)
            failed(std::to_string(mismatches) +
                   " SP replay predictions differ from the live ones");
        if (sp_cell)
            t.predCalls += calls;
        std::uint64_t ignored = 0;
        const int b = log.open("predict.replay", parent, cell_id);
        t.spReplayCalls += replaySp(cell.cfg, probe, false, ignored);
        log.close(b);
        t.spReplayS += log.seconds(b);
    }

    // 3f. Result store: put and hit of this cell's result.
    if (!store_dir.empty()) {
        spp::ExperimentResult res;
        res.run = live;
        const spp::ContentKey key = spp::resultKey(
            cell.program, cell.cfg, scale, false, false,
            spp::gitDescribe());
        const std::string path =
            spp::resultPath(store_dir, cell.program, key.hash());
        const std::string pre = key.describe();
        int b = log.open("store.put", parent, cell_id);
        spp::storeResult(path, pre, res);
        log.close(b);
        t.storePutS += log.seconds(b);
        spp::ExperimentResult back;
        b = log.open("store.hit", parent, cell_id);
        const bool hit = spp::loadCachedResult(path, pre, back);
        log.close(b);
        t.storeHitS += log.seconds(b);
        ++t.storeOps;
        if (!hit || statsDigest(back.run) != want)
            failed("result store round trip differs");
    }
}

std::vector<Metric>
layerMetrics(const LayerTotals &t)
{
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double cells = d(t.cells);
    std::vector<Metric> m;
    auto add = [&m](const char *name, const char *unit, double v) {
        m.push_back({name, unit, v, {}, ""});
    };
    add("sim.setup_ms", "ms", ratio(t.setupS * 1e3, cells));
    add("sim.run_ms", "ms", ratio(t.runS * 1e3, cells));
    add("sim.outside_handlers_pct", "%",
        100.0 * ratio(t.tracedRunS - t.deliveryRawS, t.tracedRunS));
    add("workload.ops_per_access", "ops/access", ratio(d(t.ops), d(t.accesses)));
    add("workload.frontend_pct", "%",
        100.0 * ratio(t.runS - t.replayRunS, t.runS));
    add("event.events_per_access", "events/access",
        ratio(d(t.events), d(t.accesses)));
    add("event.ns_per_event", "ns",
        ratio(t.eventReplayS * 1e9, d(t.eventReplayEvents)));
    add("noc.packets_per_miss", "packets/miss",
        ratio(d(t.packets), d(t.misses)));
    add("noc.hops_per_packet", "hops/packet", ratio(d(t.hops), d(t.packets)));
    add("noc.queue_cyc_p50", "cycles", histPercentile(t.queueHist, 50));
    add("noc.queue_cyc_p99", "cycles", histPercentile(t.queueHist, 99));
    add("noc.link_busy_max_pct", "%", t.linkBusyMaxPct);
    add("noc.ns_per_inject", "ns", ratio(t.nocReplayS * 1e9, d(t.packets)));
    add("mem.l1_hit_pct", "%", 100.0 * ratio(d(t.l1Hits), d(t.accesses)));
    add("mem.l2_hit_pct", "%",
        100.0 * ratio(d(t.l2Hits), d(t.accesses - t.l1Hits)));
    add("mem.snoop_lookups_per_miss", "lookups/miss",
        ratio(d(t.snoopLookups), d(t.misses)));
    add("mem.ns_per_lookup", "ns",
        ratio(t.memReplayS * 1e9, d(t.replayLookups)));
    add("coherence.deliveries_per_miss", "msgs/miss",
        ratio(d(t.deliveries), d(t.misses)));
    add("coherence.comm_miss_pct", "%",
        100.0 * ratio(d(t.commMisses), d(t.misses)));
    add("coherence.miss_latency_p99_cyc", "cycles",
        histPercentile(t.latencyHist, 99));
    add("coherence.ns_per_delivery", "ns",
        ratio(t.deliveryS * 1e9, d(t.deliveries)));
    add("coherence.pool_allocs_per_kmiss", "allocs/kmiss",
        1e3 * ratio(d(t.poolAllocs), d(t.misses)));
    add("predict.calls_per_miss", "calls/miss",
        ratio(d(t.predCalls), d(t.misses)));
    add("predict.useful_pct", "%",
        100.0 * ratio(d(t.predSufficient), d(t.predAttempted)));
    add("predict.waste_bytes_per_attempt", "B/attempt",
        ratio(d(t.predWasteBytes), d(t.predAttempted)));
    add("predict.ns_per_call", "ns",
        ratio(t.spReplayS * 1e9, d(t.spReplayCalls)));
    add("pred_accuracy_pct", "%", ratio(t.accuracySum, t.accuracyCells));
    add("sync.points_per_kaccess", "points/kaccess",
        1e3 * ratio(d(t.syncPoints), d(t.accesses)));
    add("sync.lock_contended_pct", "%",
        100.0 * ratio(d(t.lockContended), d(t.lockAcquisitions)));
    add("sweep.busy_pct", "%", t.sweepBusyPct);
    add("sweep.straggler_pct", "%", t.sweepStragglerPct);
    add("commtrace.overhead_pct", "%", t.commtraceOverheadPct);
    add("store.hit_pct", "%", t.storeHitPct);
    add("store.ns_per_hit", "ns", ratio(t.storeHitS * 1e9, d(t.storeOps)));
    add("store.ns_per_put", "ns", ratio(t.storePutS * 1e9, d(t.storeOps)));
    add("tracing.overhead_pct", "%",
        100.0 * ratio(t.tracedRunS - t.runS, t.tracedRunS));
    return m;
}

void
reportLayers(const std::vector<LayerTotals> &passes, Report &rep)
{
    if (passes.empty())
        return;
    std::vector<std::vector<Metric>> per_pass;
    for (const LayerTotals &t : passes)
        per_pass.push_back(layerMetrics(t));
    for (std::size_t i = 0; i < per_pass[0].size(); ++i) {
        std::vector<double> samples;
        for (const std::vector<Metric> &p : per_pass)
            samples.push_back(p[i].value);
        rep.addSamples(per_pass[0][i].name, per_pass[0][i].unit,
                       std::move(samples));
    }
    const LayerTotals &t = passes[0];
    auto pct = [](std::uint64_t a, std::uint64_t b) {
        return b ? 100.0 * static_cast<double>(a) / static_cast<double>(b)
                 : 0.0;
    };
    std::printf("cache replay (no invalidations) vs live: L1 hit %.2f%% "
                "vs %.2f%%, L2 hit %.2f%% vs %.2f%%\n",
                pct(t.replayL1Hits, t.replayLookups - t.replayL2Lookups),
                pct(t.l1Hits, t.accesses),
                pct(t.replayL2Hits, t.replayL2Lookups),
                pct(t.l2Hits, t.accesses - t.l1Hits));
    if (t.accuracyCells)
        std::printf("pred_accuracy_pct: %.2f %% over %u SP cells (the "
                    "paper reports 77%%; the model is otherwise "
                    "unvalidated against hardware)\n",
                    t.accuracySum / t.accuracyCells, t.accuracyCells);
}

void
runSerialTraced(const Options &o, Report &rep, Tally &tally)
{
    const double scale = o.scale > 0 ? o.scale : defaultScale(o.workload);
    const std::vector<Cell> cells = serialCells(o);
    DigestBook book(o, scale);
    SpanLog log;
    const std::string store =
        o.outDir + "/store-traced-" + std::to_string(getpid());
    std::vector<LayerTotals> passes;
    const Clock::time_point start = Clock::now();
    for (unsigned pass = 0; pass == 0 || since(start) < o.seconds;
         ++pass) {
        passes.emplace_back();
        const int p = log.open("traced.pass", SpanLog::noParent, 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            traceCell(cells[i], scale, static_cast<unsigned>(i), store,
                      log, p, passes.back(), tally, &book, pass == 0);
        log.close(p);
    }
    std::filesystem::remove_all(store);
    std::printf("cells: %zu per pass, scale %g, %zu traced passes, "
                "%.1f s\n",
                cells.size(), scale, passes.size(), since(start));
    book.finish();
    reportLayers(passes, rep);
    finishSpans(log, o);
}

void
finishSpans(const SpanLog &log, const Options &o)
{
    std::printf("%-28s %12s %12s %10s\n", "span", "total ms", "self ms",
                "count");
    for (const auto &[name, tot] : log.totals())
        std::printf("%-28s %12.3f %12.3f %10llu\n", name.c_str(),
                    tot.total_us / 1e3, tot.self_us / 1e3,
                    static_cast<unsigned long long>(tot.count));
    const std::string path = o.outDir + "/spans-" + o.workload +
        "-seed" + std::to_string(o.seed) + ".json";
    if (log.writeChrome(path, o.manifest))
        std::printf("spans: %zu written to %s (open in "
                    "ui.perfetto.dev)\n",
                    log.size(), path.c_str());
}

} // namespace simbench
