#include "coherence/mem_sys.hh"

#include <map>

#include "check/protocol_checker.hh"
#include "coherence/directory_protocol.hh"
#include "coherence/snoop_protocol.hh"

namespace spp {

MemSys::MemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
               DestinationPredictor *predictor,
               AccessCompletion &completion)
    : cfg_(cfg), eq_(eq), mesh_(mesh), map_(cfg),
      predictor_(predictor), completion_(completion),
      n_cores_(cfg.numCores)
{
    if (cfg.enableSharingFilter)
        filter_.emplace(n_cores_, cfg.filterRegionBytes);
    if (cfg.enableDram)
        dram_.emplace(cfg_, map_);
    l1_.reserve(n_cores_);
    l2_.reserve(n_cores_);
    wb_buffer_.resize(n_cores_);
    mshr_.resize(n_cores_);
    for (unsigned c = 0; c < n_cores_; ++c) {
        l1_.push_back(std::make_unique<CacheArray>(
            cfg.l1Bytes, cfg.l1Assoc, cfg.lineBytes));
        l2_.push_back(std::make_unique<CacheArray>(
            cfg.l2Bytes, cfg.l2Assoc, cfg.lineBytes));
    }
}

MemSys::~MemSys() = default;

// ---------------------------------------------------------------------
// Local access path
// ---------------------------------------------------------------------

void
MemSys::access(CoreId core, Addr addr, bool is_write, Pc pc)
{
    SPP_ASSERT(core < n_cores_, "access from core {}", core);
    SPP_ASSERT(!mshr_[core].has_value(),
               "core {} issued a second outstanding access", core);
    ++stats_.accesses;
    accessL1(core, addr, is_write, pc, eq_.curTick());
}

void
MemSys::accessL1(CoreId core, Addr addr, bool is_write, Pc pc,
                 Tick issue)
{
    const Addr line = map_.lineAddr(addr);

    // A re-reference to a line sitting in the writeback buffer stalls
    // until the writeback drains, then restarts its lookup; its
    // latency counts from the original issue.
    if (WbEntry *wb = wb_buffer_[core].find(line)) {
        wb->stalled.push_back([this, core, addr, is_write, pc, issue]() {
            accessL1(core, addr, is_write, pc, issue);
        });
        return;
    }

    // L1 lookup.
    CacheLine *l1_line = l1_[core]->lookup(line);
    if (l1_line && (!is_write || isWritable(l1_line->state))) {
        const bool promote = is_write &&
            l1_line->state == Mesif::exclusive;
        std::uint64_t version = l1_line->version;
        if (is_write) {
            version = nextVersion();
            l1_line->state = Mesif::modified;
            l1_line->version = version;
            CacheLine *l2_line = l2_[core]->lookup(line);
            SPP_ASSERT(l2_line && isWritable(l2_line->state),
                       "L1 writable without L2 writable (core {})",
                       core);
            l2_line->state = Mesif::modified;
            l2_line->version = version;
            (void)promote;
        }
        ++stats_.l1Hits;
        eq_.scheduleAfter(cfg_.l1Latency,
            [this, core, is_write, issue, version]() {
                AccessOutcome out;
                out.l1Hit = true;
                out.isWrite = is_write;
                out.issueTick = issue;
                out.completeTick = eq_.curTick();
                out.dataVersion = version;
                stats_.hitLatency.sample(
                    static_cast<double>(out.latency()));
                completion_.accessDone(core, out);
            });
        return;
    }

    eq_.scheduleAfter(cfg_.l1Latency,
        [this, core, addr, is_write, pc, issue]() {
            accessL2(core, addr, is_write, pc, issue);
        });
}

void
MemSys::accessL2(CoreId core, Addr addr, bool is_write, Pc pc,
                 Tick issue_tick)
{
    const Addr line = map_.lineAddr(addr);
    CacheLine *l2_line = l2_[core]->lookup(line);

    // L2 hit (including a silent E->M promotion on writes).
    if (l2_line && (!is_write || isWritable(l2_line->state))) {
        std::uint64_t version = l2_line->version;
        if (is_write) {
            version = nextVersion();
            l2_line->state = Mesif::modified;
            l2_line->version = version;
        }
        // Refill L1 for subsequent accesses.
        CacheLine *l1_line = l1_[core]->lookup(line);
        if (!l1_line) {
            CacheLine victim;
            l1_line = l1_[core]->allocate(line, victim);
        }
        l1_line->state = l2_line->state;
        l1_line->version = version;
        l1_line->lastPc = l2_line->lastPc;

        ++stats_.l2Hits;
        const Tick lat = cfg_.l2TagLatency + cfg_.l2DataLatency;
        eq_.scheduleAfter(lat,
            [this, core, is_write, issue_tick, version]() {
                AccessOutcome out;
                out.l2Hit = true;
                out.isWrite = is_write;
                out.issueTick = issue_tick;
                out.completeTick = eq_.curTick();
                out.dataVersion = version;
                stats_.hitLatency.sample(
                    static_cast<double>(out.latency()));
                completion_.accessDone(core, out);
            });
        return;
    }

    // Miss (or write-upgrade). The transaction starts after the tag
    // lookup determined the miss.
    const bool had_line = l2_line != nullptr;
    eq_.scheduleAfter(cfg_.l2TagLatency,
        [this, core, line, is_write, pc, issue_tick, had_line]() {
            Mshr &m = mshr_[core].emplace();
            m.core = core;
            m.line = line;
            m.isWrite = is_write;
            m.hadLine = had_line;
            m.pc = pc;
            m.txn = ++txn_counter_;
            m.issueTick = issue_tick;
            m.out.isWrite = is_write;
            m.out.upgrade = had_line && is_write;
            m.out.issueTick = issue_tick;
            m.needData = !(is_write && had_line);

            ++stats_.misses;
            if (m.out.upgrade)
                ++stats_.upgradeMisses;

            if (predictor_ &&
                (cfg_.protocol == Protocol::predicted ||
                 cfg_.protocol == Protocol::multicast)) {
                if (filter_ && !filter_->allowPrediction(core, line)) {
                    // Region never observed shared: skip the
                    // prediction action (Section 5.3 filtering).
                    ++stats_.predictionsSuppressed;
                } else {
                    PredictionQuery q;
                    q.core = core;
                    q.line = line;
                    q.macroBlock = map_.macroBlock(line);
                    q.pc = pc;
                    q.isWrite = is_write;
                    Prediction p = predictor_->predict(q);
                    p.targets.reset(core); // Never predict self.
                    if (p.valid()) {
                        m.out.pred = p;
                        ++stats_.predictionsAttempted;
                        stats_.predictedTargets.sample(
                            static_cast<double>(p.targets.count()));
                    }
                }
            }
            startMiss(m);
        });
}

// ---------------------------------------------------------------------
// Fills, evictions and writebacks
// ---------------------------------------------------------------------

void
MemSys::fillLine(CoreId core, Addr line, Mesif state, Pc pc,
                 std::uint64_t version)
{
    CacheLine *l2_line = l2_[core]->lookup(line);
    if (!l2_line) {
        CacheLine victim;
        l2_line = l2_[core]->allocate(line, victim);
        if (isValid(victim.state)) {
            // Inclusion: drop the victim from L1 as well.
            l1_[core]->invalidate(victim.tag);
            if (canForward(victim.state)) {
                WbEntry &wb =
                    wb_buffer_[core].findOrInsert(victim.tag);
                wb.state = victim.state;
                wb.version = victim.version;
                wb.lastPc = victim.lastPc;
                startWriteback(core, victim.tag);
            }
            // Shared victims are dropped silently; the directory's
            // sharer bit goes stale, which later invalidations
            // tolerate (acks are sent regardless of a hit).
        }
    }
    l2_line->state = state;
    l2_line->lastPc = pc;
    l2_line->version = version;

    CacheLine *l1_line = l1_[core]->lookup(line);
    if (!l1_line) {
        CacheLine l1_victim;
        l1_line = l1_[core]->allocate(line, l1_victim);
    }
    l1_line->state = state;
    l1_line->lastPc = pc;
    l1_line->version = version;
}

void
MemSys::startWriteback(CoreId core, Addr line)
{
    ++outstanding_wb_;
    ++stats_.writebacks;
    WbEntry &wb = wb_buffer_[core].findOrInsert(line);
    wb.txn = ++txn_counter_;
    const TxnKey key{core, wb.txn};

    auto do_notice = [this, core, line, key]() {
        WbEntry *entry = wb_buffer_[core].find(line);
        if (entry == nullptr || entry->txn != key.txn) {
            // The entry was invalidated (or replaced) while the
            // writeback waited for the line lock: nothing to do.
            locks_.release(line, key);
            --outstanding_wb_;
            return;
        }
        if (!canForward(entry->state)) {
            // Downgraded to Shared while waiting; drop silently.
            std::vector<EventQueue::Action> stalled =
                std::move(entry->stalled);
            wb_buffer_[core].erase(line);
            locks_.release(line, key);
            --outstanding_wb_;
            for (auto &resume : stalled)
                eq_.scheduleAfter(0, std::move(resume));
            return;
        }
        entry->noticed = true;
        Msg m = txnMsg(MsgType::wbNotice, line, core, map_.homeNode(line),
                       key);
        m.ownerAck = entry->state == Mesif::modified; // Carries data.
        m.version = entry->version;
        sendMsg(m);
    };

    if (locks_.acquireOrQueue(line, key, do_notice))
        do_notice();
}

void
MemSys::applyWriteback(const Msg &m)
{
    onWriteback(m.requester, m.line);
    if (m.ownerAck)
        depositMemVersion(m.line, m.version);
    // The ack names no transaction: the evictor drains by line.
    sendMsg(txnMsg(MsgType::wbAck, m.line, map_.homeNode(m.line),
                   m.requester, TxnKey{m.requester, 0}));
    locks_.release(m.line, TxnKey{m.requester, m.txn});
}

void
MemSys::finishWriteback(CoreId core, Addr line)
{
    // The home released the line lock when it applied the wbNotice;
    // here the buffer entry just drains.
    WbEntry *entry = wb_buffer_[core].find(line);
    SPP_ASSERT(entry != nullptr,
               "wbAck for missing buffer entry at core {}", core);
    std::vector<EventQueue::Action> stalled =
        std::move(entry->stalled);
    wb_buffer_[core].erase(line);
    --outstanding_wb_;
    for (auto &resume : stalled)
        eq_.scheduleAfter(0, std::move(resume));
}

// ---------------------------------------------------------------------
// Peer-side helpers
// ---------------------------------------------------------------------

MemSys::PeerView
MemSys::peerView(CoreId core, Addr line) const
{
    PeerView v;
    if (const CacheLine *l = l2_[core]->peek(line)) {
        v.valid = true;
        v.state = l->state;
        v.version = l->version;
        v.lastPc = l->lastPc;
        return v;
    }
    const WbEntry *wb = wb_buffer_[core].find(line);
    if (wb != nullptr && isValid(wb->state)) {
        v.valid = true;
        v.inBuffer = true;
        v.noticed = wb->noticed;
        v.state = wb->state;
        v.version = wb->version;
        v.lastPc = wb->lastPc;
    }
    return v;
}

void
MemSys::downgradeToShared(CoreId core, Addr line)
{
    if (CacheLine *l = l2_[core]->find(line)) {
        l->state = Mesif::shared;
        if (CacheLine *l1l = l1_[core]->find(line))
            l1l->state = Mesif::shared;
        return;
    }
    if (WbEntry *wb = wb_buffer_[core].find(line))
        wb->state = Mesif::shared;
}

void
MemSys::invalidateAt(CoreId core, Addr line)
{
    l2_[core]->invalidate(line);
    l1_[core]->invalidate(line);
    if (WbEntry *wb = wb_buffer_[core].find(line)) {
        // A noticed entry's writeback has already been applied at the
        // home (the invalidating transaction could only start after
        // the wb released the line lock); draining it as invalid is
        // safe. An un-noticed entry's queued writeback transaction
        // observes the cancellation when it runs.
        wb->state = Mesif::invalid;
        // Keep the entry so the queued writeback transaction can
        // observe the cancellation; stalled accesses resume when the
        // wb transaction cleans up or, earlier, right now (the line
        // is simply gone, so the access can restart).
        std::vector<EventQueue::Action> stalled =
            std::move(wb->stalled);
        for (auto &resume : stalled)
            eq_.scheduleAfter(0, std::move(resume));
    }
}

void
MemSys::forwardCopy(const Msg &req, const PeerView &v)
{
    const CoreId self = req.dst;
    const TxnKey key{req.requester, req.txn};
    const Tick lat = cfg_.l2TagLatency + cfg_.l2DataLatency;
    if (v.state == Mesif::modified) {
        // Downgrade writes the dirty line back to the home tile.
        Msg dep = txnMsg(MsgType::dirUpdate, req.line, self,
                         map_.homeNode(req.line), key);
        dep.version = v.version;
        sendMsgAfter(lat, dep);
    }
    downgradeToShared(self, req.line);
    Msg d = txnMsg(MsgType::data, req.line, self, req.requester, key);
    d.predicted = req.type == MsgType::predRead;
    d.fillState = cfg_.cleanSharedFill();
    d.version = v.version;
    sendMsgAfter(lat, d);
}

void
MemSys::invalidateAndAck(const Msg &req, const PeerView &v)
{
    const CoreId self = req.dst;
    Msg a = txnMsg(MsgType::ackInv, req.line, self, req.requester,
                   TxnKey{req.requester, req.txn});
    a.predicted = req.type == MsgType::predWrite;
    a.hadCopy = v.valid;
    Tick lat = cfg_.l2TagLatency;
    if (v.valid && canForward(v.state)) {
        a.ownerAck = true;
        a.version = v.version;
        lat += cfg_.l2DataLatency;
    }
    if (v.valid)
        invalidateAt(self, req.line);
    sendMsgAfter(lat, a);
}

void
MemSys::trainExternalAt(CoreId observer, Addr line, CoreId requester,
                        bool is_write)
{
    if (filter_)
        filter_->markShared(observer, line);
    if (!predictor_)
        return;
    PeerView v = peerView(observer, line);
    if (!v.valid)
        return;
    predictor_->trainExternal(observer, line, map_.macroBlock(line),
                              v.lastPc, requester, is_write);
}

// ---------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------

MemSys::Mshr *
MemSys::mshrFor(CoreId core, Addr line)
{
    if (!mshr_[core].has_value() || mshr_[core]->line != line)
        return nullptr;
    return &*mshr_[core];
}

bool
MemSys::absorbData(Mshr &m, const Msg &msg)
{
    const bool keep = !m.dataReceived || msg.version > m.version ||
        (msg.version == m.version && !msg.fromMemory &&
         !m.dataFromPeer);
    m.dataReceived = true;
    if (!keep)
        return false;
    m.version = msg.version;
    if (msg.fillState != Mesif::invalid)
        m.fillState = msg.fillState;
    if (msg.fromMemory) {
        m.dataFromPeer = false;
        m.dataSource = invalidCore;
    } else {
        m.dataFromPeer = true;
        m.dataSource = msg.src;
        m.out.servicedBy.set(msg.src);
    }
    return true;
}

void
MemSys::completeMiss(Mshr &m)
{
    finishOutcome(m);
    onCompleteMiss(m);
    const CoreId core = m.core;
    const AccessOutcome out = m.out;
    mshr_[core].reset();
    completion_.accessDone(core, out);
}

void
MemSys::finishOutcome(Mshr &m)
{
    AccessOutcome &out = m.out;
    out.completeTick = eq_.curTick();
    out.communicating = !out.servicedBy.empty();
    out.offChip = m.dataReceived && !m.dataFromPeer;

    // Install / promote the line.
    if (m.isWrite) {
        const std::uint64_t version = nextVersion();
        if (CacheLine *l = l2_[m.core]->lookup(m.line)) {
            l->state = Mesif::modified;
            l->version = version;
            l->lastPc = m.pc;
            CacheLine *l1l = l1_[m.core]->lookup(m.line);
            if (!l1l) {
                CacheLine v;
                l1l = l1_[m.core]->allocate(m.line, v);
            }
            l1l->state = Mesif::modified;
            l1l->version = version;
            l1l->lastPc = m.pc;
        } else {
            fillLine(m.core, m.line, Mesif::modified, m.pc, version);
        }
        out.dataVersion = version;
    } else {
        SPP_ASSERT(m.dataReceived, "read miss completed without data");
        const Mesif fill = m.fillState == Mesif::invalid
            ? Mesif::forwarding : m.fillState;
        fillLine(m.core, m.line, fill, m.pc, m.version);
        out.dataVersion = m.version;
    }

    // Prediction sufficiency (Section 5.2: the predicted set must be
    // a superset of the targets that had to be contacted).
    std::uint64_t waste_bytes = 0;
    if (out.pred.valid()) {
        bool sufficient = false;
        if (out.communicating) {
            if (m.isWrite) {
                sufficient = out.pred.targets.contains(m.mustAck) &&
                    m.retried.empty() &&
                    (!m.needData ||
                     (m.dataFromPeer &&
                      out.pred.targets.test(m.dataSource)));
            } else {
                sufficient = m.dataFromPeer && !m.predFailedSent &&
                    out.pred.targets.test(m.dataSource);
            }
        }
        out.predSufficient = sufficient;
        // Attribute wasted predicted-request bandwidth: every target
        // that did not end up servicing the miss cost a request plus
        // a Nack/Ack round trip.
        const unsigned wasted = out.communicating
            ? (out.pred.targets - out.servicedBy).count()
            : out.pred.targets.count();
        waste_bytes = static_cast<std::uint64_t>(wasted) *
            (2ull * cfg_.ctrlPacketBytes);
        if (out.communicating)
            stats_.predWasteBytesComm += waste_bytes;
        else
            stats_.predWasteBytesNonComm += waste_bytes;
        if (out.communicating) {
            ++stats_.predictionsOnCommunicating;
            if (sufficient) {
                ++stats_.predictionsSufficient;
                stats_.sufficientBySource[
                    static_cast<std::size_t>(out.pred.source)]++;
            }
        } else {
            ++stats_.predictionsOnNonComm;
        }
    }

    // The sharing filter learns from observed communication.
    if (filter_ && out.communicating)
        filter_->markShared(m.core, m.line);

    // Statistics.
    const double lat = static_cast<double>(out.latency());
    stats_.missLatency.sample(lat);
    if (out.communicating) {
        ++stats_.communicatingMisses;
        stats_.commMissLatency.sample(lat);
        stats_.actualTargets.sample(
            static_cast<double>(out.servicedBy.count()));
    } else {
        stats_.nonCommMissLatency.sample(lat);
    }
    if (out.offChip)
        ++stats_.offChipMisses;

    // Predictor training and feedback.
    if (predictor_) {
        PredictionQuery q;
        q.core = m.core;
        q.line = m.line;
        q.macroBlock = map_.macroBlock(m.line);
        q.pc = m.pc;
        q.isWrite = m.isWrite;
        if (out.communicating)
            predictor_->trainResponse(q, out.servicedBy);
        predictor_->feedback(m.core, out.pred, out.communicating,
                             out.predSufficient);
    }

    if (attribution_ != nullptr) [[unlikely]]
        attribution_->onMissResolved(m.core, m.line, out, waste_bytes);
}

// ---------------------------------------------------------------------
// Message plumbing
// ---------------------------------------------------------------------

unsigned
MemSys::msgBytes(const Msg &m) const
{
    switch (m.type) {
      case MsgType::data:
      case MsgType::dirUpdate:
        return cfg_.dataPacketBytes;
      case MsgType::wbNotice:
        return m.ownerAck ? cfg_.dataPacketBytes : cfg_.ctrlPacketBytes;
      case MsgType::ackInv:
        return m.ownerAck ? cfg_.dataPacketBytes : cfg_.ctrlPacketBytes;
      default:
        return cfg_.ctrlPacketBytes;
    }
}

TrafficClass
MemSys::msgClass(const Msg &m) const
{
    switch (m.type) {
      case MsgType::reqRead:
      case MsgType::reqWrite:
      case MsgType::snoopReq:
        return TrafficClass::request;
      case MsgType::predRead:
      case MsgType::predWrite:
        return TrafficClass::predRequest;
      case MsgType::fwdRead:
      case MsgType::inv:
        return TrafficClass::forward;
      case MsgType::data:
        return TrafficClass::data;
      case MsgType::wbNotice:
        return m.ownerAck ? TrafficClass::data : TrafficClass::dirUpdate;
      case MsgType::dirUpdate:
        return TrafficClass::dirUpdate;
      case MsgType::ackInv:
        return m.ownerAck ? TrafficClass::data : TrafficClass::response;
      default:
        return TrafficClass::response;
    }
}

void
MemSys::sendMsg(const Msg &m)
{
    Msg *slot = msg_pool_.acquire();
    *slot = m;
    sendPooled(slot);
}

void
MemSys::sendPooled(Msg *slot)
{
    if (checker_) [[unlikely]]
        checker_->onSend(*slot);
    Packet pkt;
    pkt.src = slot->src;
    pkt.dst = slot->dst;
    pkt.bytes = msgBytes(*slot);
    pkt.cls = msgClass(*slot);
    if (attribution_ != nullptr) [[unlikely]] {
        // Attribute traffic to the core whose request caused it;
        // messages without a requester (e.g. evictions) fall back to
        // the sender.
        attribution_->onMessageSent(
            slot->requester != invalidCore ? slot->requester
                                           : slot->src,
            slot->line, pkt.bytes);
    }
    // The delivery closure carries only the slot pointer, so it fits
    // any action inline. The slot is released after the handler
    // returns: handlers receive a const reference into the slot and
    // must copy anything they keep (they do — queued continuations
    // capture the Msg by value); sends they issue take other slots.
    // checker_ is re-read at delivery time so detaching mid-flight
    // is safe; the checker sees the pre-handler state of the system.
    const Tick arrive = mesh_.inject(pkt);
    EventQueue::Action deliver = [this, slot]() {
        if (checker_) [[unlikely]]
            checker_->onDeliver(*slot);
        handleMsg(*slot);
        msg_pool_.release(slot);
    };
    if (delivery_scheduler_ != nullptr) [[unlikely]] {
        delivery_scheduler_->onMessage(arrive, *slot,
                                       std::move(deliver));
    } else {
        eq_.schedule(arrive, std::move(deliver));
    }
}

Msg
MemSys::txnMsg(MsgType type, Addr line, CoreId src, CoreId dst,
               const TxnKey &key)
{
    Msg m;
    m.type = type;
    m.line = line;
    m.src = src;
    m.dst = dst;
    m.requester = key.requester;
    m.txn = key.txn;
    return m;
}

void
MemSys::sendMsgAfter(Tick extra_delay, const Msg &m)
{
    // Acquire the slot up front so the deferred send is a pointer
    // capture, not a second Msg copy through the closure.
    Msg *slot = msg_pool_.acquire();
    *slot = m;
    eq_.scheduleAfter(extra_delay,
                      [this, slot]() { sendPooled(slot); });
}

Tick
MemSys::memAccessLatency(Addr line)
{
    if (dram_)
        return dram_->accessLatency(line, eq_.curTick());
    return cfg_.memLatency;
}

std::uint64_t
MemSys::memVersion(Addr line) const
{
    const std::uint64_t *v = mem_version_.find(line);
    return v == nullptr ? 0 : *v;
}

void
MemSys::depositMemVersion(Addr line, std::uint64_t version)
{
    std::uint64_t &v = mem_version_.findOrInsert(line);
    if (version > v)
        v = version;
}

// ---------------------------------------------------------------------
// Model-checker state hashing
// ---------------------------------------------------------------------

void
MemSys::hashCoreSet(StateHasher &h, const CoreSet &s)
{
    // Members in ascending order, then a terminator so e.g. {1} into
    // one set and {2} into the next cannot alias {1,2} into the first.
    for (CoreId c : s)
        h.mix(c);
    h.mix(~std::uint64_t{0});
}

void
MemSys::hashMshr(StateHasher &h, const Mshr &m)
{
    h.mix(m.core);
    h.mix(m.line);
    h.mix(std::uint64_t{m.isWrite} |
          std::uint64_t{m.hadLine} << 1 |
          std::uint64_t{m.needData} << 2 |
          std::uint64_t{m.dataReceived} << 3 |
          std::uint64_t{m.dataFromPeer} << 4 |
          std::uint64_t{m.predFailedSent} << 5 |
          std::uint64_t{m.peerHadCopy} << 6 |
          std::uint64_t{m.ordered} << 7 |
          std::uint64_t{m.coreResumed} << 8);
    h.mix(m.txn);
    hashCoreSet(h, m.mustAck);
    hashCoreSet(h, m.ackedBy);
    hashCoreSet(h, m.nackedBy);
    hashCoreSet(h, m.retried);
    h.mix(m.predRespPending);
    h.mix(m.peerResponses);
    h.mix(m.dataSource);
    h.mix(static_cast<std::uint64_t>(m.fillState));
    h.mix(m.version);
}

void
MemSys::hashState(StateHasher &h) const
{
    for (unsigned c = 0; c < n_cores_; ++c) {
        StateHasher core;
        core.mix(c);
        // Cache arrays enumerate valid lines in set/way order. Way
        // order follows the history of fills and invalidations, not
        // contents only, so the same lines in other ways hash apart:
        // pruning may miss that revisit but never merges two states.
        // lastPc is deliberately excluded: it feeds only predictor
        // training (excluded by design, see hashState's declaration).
        l2_[c]->forEachValid([&](const CacheLine &l) {
            core.mix(l.tag);
            core.mix(static_cast<std::uint64_t>(l.state));
            core.mix(l.version);
        });
        l1_[c]->forEachValid([&](const CacheLine &l) {
            core.mix(l.tag);
            core.mix(static_cast<std::uint64_t>(l.state));
            core.mix(l.version);
        });
        // PooledMap iteration order depends on allocation history, so
        // writeback-buffer entries fold commutatively.
        wb_buffer_[c].forEach([&](Addr line, const WbEntry &wb) {
            StateHasher sub;
            sub.mix(line);
            sub.mix(static_cast<std::uint64_t>(wb.state));
            sub.mix(wb.version);
            sub.mix(wb.txn);
            sub.mix(wb.noticed);
            sub.mix(wb.stalled.size());
            core.mixUnordered(sub.value());
        });
        core.mix(mshr_[c].has_value());
        if (mshr_[c].has_value())
            hashMshr(core, *mshr_[c]);
        h.mix(core.value());
    }
    locks_.hashInto(h);
    // PooledMap iteration order depends on insertion history, so
    // memory versions fold commutatively.
    mem_version_.forEach([&h](Addr line, std::uint64_t v) {
        StateHasher sub;
        sub.mix(line);
        sub.mix(v);
        h.mixUnordered(sub.value());
    });
    h.mix(version_counter_);
    h.mix(txn_counter_);
    h.mix(outstanding_wb_);
}

// ---------------------------------------------------------------------
// Drain / invariant checking
// ---------------------------------------------------------------------

bool
MemSys::drained() const
{
    if (outstanding_wb_ != 0 || locks_.lockedLines() != 0)
        return false;
    for (const auto &m : mshr_)
        if (m.has_value())
            return false;
    return true;
}

std::string
MemSys::dumpOutstanding() const
{
    std::string out;
    for (unsigned c = 0; c < n_cores_; ++c) {
        if (mshr_[c].has_value()) {
            const Mshr &m = *mshr_[c];
            out += strfmt(
                "core {} txn {} line {} write={} hadLine={} data={} "
                "ordered={} acks={}/{} predPending={} nacked={} "
                "predFailedSent={} pred={}\n",
                c, m.txn, m.line, m.isWrite, m.hadLine,
                m.dataReceived, m.ordered, m.ackedBy.count(),
                m.mustAck.count(), m.predRespPending,
                m.nackedBy.toString(), m.predFailedSent,
                m.out.pred.targets.toString());
        }
        wb_buffer_[c].forEach([&](Addr line, const WbEntry &wb) {
            out += strfmt("core {} wb line {} state {} noticed={} "
                          "stalled={}\n",
                          c, line, toString(wb.state), wb.noticed,
                          wb.stalled.size());
        });
    }
    locks_.dump([&](Addr line, const TxnKey &holder,
                    std::size_t waiters) {
        out += strfmt("lock line {} held by core {} txn {} "
                      "({} waiters)\n",
                      line, holder.requester, holder.txn, waiters);
    });
    return out;
}

void
MemSys::checkCoherence() const
{
    SPP_ASSERT(drained(), "coherence check requires a drained system");

    // Collect every line with at least one valid copy, in address
    // order, so the first violation reported does not depend on a
    // hash table's order.
    std::map<Addr, std::vector<std::pair<CoreId, CacheLine>>> copies;
    for (unsigned c = 0; c < n_cores_; ++c) {
        l2_[c]->forEachValid([&](const CacheLine &line) {
            copies[line.tag].emplace_back(c, line);
        });
    }

    for (const auto &[line, holders] : copies) {
        unsigned owners = 0;
        unsigned dirty = 0;
        for (const auto &[core, cl] : holders) {
            if (canForward(cl.state))
                ++owners;
            if (isDirty(cl.state))
                ++dirty;
            if (cl.state == Mesif::exclusive ||
                cl.state == Mesif::modified) {
                SPP_ASSERT(holders.size() == 1,
                           "line {} in {} at core {} with {} copies",
                           line, toString(cl.state), core,
                           holders.size());
            }
        }
        SPP_ASSERT(owners <= 1, "line {} has {} forwardable copies",
                   line, owners);
        // Clean copies must agree with each other and with memory.
        if (dirty == 0) {
            const std::uint64_t mem_v = memVersion(line);
            for (const auto &[core, cl] : holders) {
                SPP_ASSERT(cl.version == mem_v,
                           "stale clean copy of line {} at core {}: "
                           "{} vs mem {}",
                           line, core, cl.version, mem_v);
            }
        } else {
            for (const auto &[core, cl] : holders) {
                SPP_ASSERT(cl.version >= memVersion(line),
                           "dirty copy of line {} at core {} older "
                           "than memory", line, core);
            }
        }
    }

    // L1 inclusion in L2 with matching state.
    for (unsigned c = 0; c < n_cores_; ++c) {
        l1_[c]->forEachValid([&](const CacheLine &l1l) {
            const CacheLine *l2l = l2_[c]->peek(l1l.tag);
            SPP_ASSERT(l2l, "L1 line {} at core {} not in L2",
                       l1l.tag, c);
            SPP_ASSERT(l2l->state == l1l.state &&
                       l2l->version == l1l.version,
                       "L1/L2 mismatch for line {} at core {}",
                       l1l.tag, c);
        });
    }
}

std::unique_ptr<MemSys>
makeMemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
           DestinationPredictor *predictor, AccessCompletion &completion)
{
    switch (cfg.protocol) {
      case Protocol::broadcast:
        return std::make_unique<BroadcastMemSys>(cfg, eq, mesh,
                                                 completion);
      case Protocol::multicast:
        return std::make_unique<MulticastMemSys>(cfg, eq, mesh,
                                                 predictor, completion);
      case Protocol::directory:
      case Protocol::predicted:
        break;
    }
    return std::make_unique<DirectoryMemSys>(cfg, eq, mesh, predictor,
                                             completion);
}

} // namespace spp
