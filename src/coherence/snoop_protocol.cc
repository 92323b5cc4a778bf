#include "coherence/snoop_protocol.hh"

namespace spp {

// ---------------------------------------------------------------------
// Requester side
// ---------------------------------------------------------------------

void
SnoopMemSys::startMiss(Mshr &m)
{
    const TxnKey key{m.core, m.txn};
    const CoreId core = m.core;
    const Addr line = m.line;
    auto go = [this, core, line]() {
        Mshr *mm = mshrFor(core, line);
        SPP_ASSERT(mm, "snoop miss start without MSHR");
        launch(*mm);
    };
    if (locks_.acquireOrQueue(line, key, go))
        go();
}

void
SnoopMemSys::snoopTargets(const Mshr &m, const CoreSet &targets)
{
    for (CoreId t : targets) {
        Msg s = txnMsg(MsgType::snoopReq, m.line, m.core, t,
                       TxnKey{m.core, m.txn});
        s.isWrite = m.isWrite;
        sendMsg(s);
    }
}

void
SnoopMemSys::sendSnoop(CoreId src, CoreId dst, const Msg &like)
{
    Msg s = like;
    s.type = MsgType::snoopReq;
    s.src = src;
    s.dst = dst;
    sendMsg(s);
}

SnoopMemSys::Mshr *
SnoopMemSys::txnFor(CoreId core, Addr line, std::uint64_t txn)
{
    if (Mshr *m = mshrFor(core, line)) {
        if (m->txn == txn)
            return m;
    }
    return lingering_.find(txn);
}

void
SnoopMemSys::onData(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    if (!m) {
        // Memory data can outlive its transaction: the owner's data
        // (or an evicted owner's writeback buffer, which answers
        // snoops until its wbAck arrives) plus every snoop response
        // retire it first. Drop it; late *peer* data would mean lost
        // coherence state.
        SPP_ASSERT(msg.fromMemory,
                   "snoop peer data for missing txn at core {}",
                   msg.dst);
        ++late_data_drops_;
        return;
    }
    // Peer and memory data can both arrive for a live transaction;
    // absorbData keeps the freshest copy (owner data wins ties).
    absorbData(*m, msg);
    if (!msg.fromMemory) {
        // Owner data doubles as this peer's snoop response.
        m->peerHadCopy = true;
        ++m->peerResponses;
    }
    checkCompletion(*m);
}

void
SnoopMemSys::onAckInv(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    SPP_ASSERT(m, "ackInv for missing snoop txn at core {}", msg.dst);
    ++m->peerResponses;
    if (msg.hadCopy) {
        m->out.servicedBy.set(msg.src);
        m->peerHadCopy = true;
    }
    if (msg.ownerAck) {
        // Authoritative owner data; overrides a memory fill.
        absorbData(*m, msg);
    }
    checkCompletion(*m);
}

void
SnoopMemSys::onSnoopResp(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    SPP_ASSERT(m, "snoopResp for missing txn at core {}", msg.dst);
    ++m->peerResponses;
    if (msg.hadCopy)
        m->peerHadCopy = true;
    checkCompletion(*m);
}

bool
SnoopMemSys::maybeResumeCore(Mshr &m)
{
    // Reads resume on usable data; writes once ordered and their
    // data (if any) arrived.
    if (m.coreResumed || (m.isWrite && !m.ordered))
        return false;
    const bool data_ok = m.dataReceived &&
        (m.dataFromPeer || memoryDataUsable(m));
    if (m.needData && !data_ok)
        return false;
    if (!m.isWrite && !m.dataFromPeer)
        m.fillState = memoryFill(m);
    m.coreResumed = true;
    finishOutcome(m);

    // Move the transaction aside so the core can issue its next
    // access; responses keep finding it via txnFor().
    const CoreId core = m.core;
    const std::uint64_t txn = m.txn;
    Mshr &moved = lingering_.insert(txn);
    moved = std::move(m);
    mshr_[core].reset();
    completion_.accessDone(core, moved.out);
    return true;
}

void
SnoopMemSys::checkCompletion(Mshr &m)
{
    // NOTE: maybeResumeCore may move the Mshr into lingering_;
    // re-resolve before the final-drain check.
    const CoreId core = m.core;
    const Addr line = m.line;
    const std::uint64_t txn = m.txn;
    maybeResumeCore(m);
    Mshr *mm = txnFor(core, line, txn);
    SPP_ASSERT(mm, "snoop txn lost during completion");
    if (!mm->coreResumed || !allResponsesIn(*mm))
        return;
    // Fully drained: release the home ordering lock.
    sendMsg(txnMsg(MsgType::unblock, line, core, map_.homeNode(line),
                   TxnKey{core, txn}));
    lingering_.erase(txn);
}

// ---------------------------------------------------------------------
// Peer side
// ---------------------------------------------------------------------

void
SnoopMemSys::onSnoopReq(const Msg &m)
{
    const CoreId self = m.dst;
    countSnoop();
    onSnoopArrival(m);
    const PeerView v = peerView(self, m.line);

    if (m.isWrite ? !v.valid : !(v.valid && canForward(v.state))) {
        Msg r = txnMsg(MsgType::snoopResp, m.line, self, m.requester,
                       TxnKey{m.requester, m.txn});
        r.hadCopy = v.valid;
        sendMsgAfter(cfg_.l2TagLatency, r);
        return;
    }

    // The policy hears of an owner's answer, except from a dirty read
    // forward, whose deposit at the home stands in for it.
    if (canForward(v.state) &&
        (m.isWrite || v.state != Mesif::modified))
        onOwnerAnswer(self, m, cfg_.l2TagLatency + cfg_.l2DataLatency);
    if (!m.isWrite) {
        forwardCopy(m, v);
        return;
    }
    invalidateAndAck(m, v);
    // An in-flight upgrade at this peer just lost its copy; it now
    // needs data from the eventual owner or memory.
    if (Mshr *own = mshrFor(self, m.line)) {
        if (own->isWrite)
            own->needData = true;
    }
}

// ---------------------------------------------------------------------
// Home side
// ---------------------------------------------------------------------

void
SnoopMemSys::sendMemoryData(Addr line, const TxnKey &key, Mesif fill)
{
    eq_.scheduleAfter(memAccessLatency(line), [this, line, key, fill]() {
        if (!claimMemoryData(line, key))
            return;
        Msg d = txnMsg(MsgType::data, line, map_.homeNode(line),
                       key.requester, key);
        d.fromMemory = true;
        d.fillState = fill;
        d.version = memVersion(line);
        sendMsg(d);
    });
}

void
SnoopMemSys::onUnblock(const Msg &m)
{
    const TxnKey key{m.requester, m.txn};
    onRetire(m.line, key);
    locks_.release(m.line, key);
}

void
SnoopMemSys::handleMsg(const Msg &m)
{
    switch (m.type) {
      case MsgType::snoopReq:
        onSnoopReq(m);
        break;
      case MsgType::snoopResp:
        onSnoopResp(m);
        break;
      case MsgType::data:
        onData(m);
        break;
      case MsgType::ackInv:
        onAckInv(m);
        break;
      case MsgType::unblock:
        onUnblock(m);
        break;
      case MsgType::wbNotice:
        applyWriteback(m);
        break;
      case MsgType::wbAck:
        finishWriteback(m.dst, m.line);
        break;
      default:
        handlePolicyMsg(m);
    }
}

std::string
SnoopMemSys::dumpOutstanding() const
{
    std::string out = MemSys::dumpOutstanding();
    lingering_.forEach([&](std::uint64_t txn, const Mshr &m) {
        out += strfmt("lingering txn {} core {} line {} write={} "
                      "ordered={} responses={} data={}\n",
                      txn, m.core, m.line, m.isWrite, m.ordered,
                      m.peerResponses, m.dataReceived);
    });
    return out;
}

void
SnoopMemSys::hashState(StateHasher &h) const
{
    MemSys::hashState(h);
    lingering_.forEach([&](std::uint64_t txn, const Mshr &m) {
        StateHasher sub;
        sub.mix(txn);
        hashMshr(sub, m);
        h.mixUnordered(sub.value());
    });
}

// ---------------------------------------------------------------------
// Broadcast: ordered fabric, speculative memory fetch
// ---------------------------------------------------------------------

BroadcastMemSys::BroadcastMemSys(const Config &cfg, EventQueue &eq,
                                 Mesh &mesh,
                                 AccessCompletion &completion)
    : SnoopMemSys(cfg, eq, mesh, nullptr, completion)
{
}

void
BroadcastMemSys::launch(Mshr &m)
{
    const CoreId home = map_.homeNode(m.line);
    const TxnKey key{m.core, m.txn};

    // The request is "ordered" once it would be visible on the
    // ordered fabric: one traversal to the ordering point. Upgrades
    // may resume the core at that point (TSO bus semantics).
    const Tick ordering_delay = mesh_.zeroLoadLatency(
        mesh_.hops(m.core, home), cfg_.ctrlPacketBytes);
    eq_.scheduleAfter(ordering_delay, [this, line = m.line, key]() {
        if (Mshr *mm = txnFor(key.requester, line, key.txn)) {
            mm->ordered = true;
            checkCompletion(*mm);
        }
    });
    snoopTargets(m, CoreSet::all(n_cores_) - CoreSet::single(m.core));

    // Speculative memory fetch at the home tile, cancellable by an
    // owner hit. When the requester is the home, start it locally;
    // otherwise the snoopReq arriving at the home starts it.
    SpecFetch &sf = spec_fetch_.findOrInsert(m.line);
    sf.key = key;
    sf.cancelled = false;
    if (home == m.core)
        sendMemoryData(m.line, key, Mesif::invalid);
}

void
BroadcastMemSys::onSnoopArrival(const Msg &m)
{
    if (m.dst == map_.homeNode(m.line))
        sendMemoryData(m.line, TxnKey{m.requester, m.txn},
                       Mesif::invalid);
}

void
BroadcastMemSys::onOwnerAnswer(CoreId self, const Msg &m, Tick lat)
{
    sendMsgAfter(lat, txnMsg(MsgType::cancel, m.line, self,
                             map_.homeNode(m.line),
                             TxnKey{m.requester, m.txn}));
}

bool
BroadcastMemSys::claimMemoryData(Addr line, const TxnKey &key)
{
    const SpecFetch *f = spec_fetch_.find(line);
    if (f == nullptr || !(f->key == key) || f->cancelled)
        return false;
    spec_fetch_.erase(line);
    return true;
}

bool
BroadcastMemSys::memoryDataUsable(const Mshr &m) const
{
    // Speculative memory data is consumable only once every snoop
    // response confirmed no cache owner exists.
    return allResponsesIn(m);
}

Mesif
BroadcastMemSys::memoryFill(const Mshr &m) const
{
    // Memory data with sharers on chip fills Forwarding; a solo copy
    // fills Exclusive.
    return m.peerHadCopy ? cfg_.cleanSharedFill() : Mesif::exclusive;
}

bool
BroadcastMemSys::allResponsesIn(const Mshr &m) const
{
    return m.peerResponses >= n_cores_ - 1;
}

void
BroadcastMemSys::onRetire(Addr line, const TxnKey &key)
{
    const SpecFetch *f = spec_fetch_.find(line);
    if (f != nullptr && f->key == key)
        spec_fetch_.erase(line);
}

void
BroadcastMemSys::handlePolicyMsg(const Msg &m)
{
    switch (m.type) {
      case MsgType::dirUpdate:
        depositMemVersion(m.line, m.version);
        [[fallthrough]];
      case MsgType::cancel: {
        // The owner answered: stop the speculative fetch.
        SpecFetch *f = spec_fetch_.find(m.line);
        if (f != nullptr && f->key == TxnKey{m.requester, m.txn})
            f->cancelled = true;
        break;
      }
      default:
        SPP_PANIC("broadcast protocol got {}", toString(m.type));
    }
}

PoolStats
BroadcastMemSys::txnPoolStats() const
{
    PoolStats sum = SnoopMemSys::txnPoolStats();
    return sum += spec_fetch_.stats();
}

void
BroadcastMemSys::hashState(StateHasher &h) const
{
    SnoopMemSys::hashState(h);
    spec_fetch_.forEach([&](std::uint64_t line, const SpecFetch &f) {
        StateHasher sub;
        sub.mix(line);
        sub.mix(f.key.requester);
        sub.mix(f.key.txn);
        sub.mix(f.cancelled);
        h.mixUnordered(sub.value());
    });
}

// ---------------------------------------------------------------------
// Multicast: predicted snoops, verifying memory-side directory
// ---------------------------------------------------------------------

MulticastMemSys::MulticastMemSys(const Config &cfg, EventQueue &eq,
                                 Mesh &mesh,
                                 DestinationPredictor *predictor,
                                 AccessCompletion &completion)
    : SnoopMemSys(cfg, eq, mesh, predictor, completion), dir_(cfg)
{
}

void
MulticastMemSys::launch(Mshr &m)
{
    // Snoop the predicted set; an empty prediction degrades to the
    // full broadcast.
    CoreSet targets = m.out.pred.targets;
    targets.reset(m.core);
    if (targets.empty())
        targets = CoreSet::all(n_cores_) - CoreSet::single(m.core);
    snoopTargets(m, targets);

    // Verification request to the home's memory-side directory.
    Msg v = txnMsg(m.isWrite ? MsgType::reqWrite : MsgType::reqRead,
                   m.line, m.core, map_.homeNode(m.line),
                   TxnKey{m.core, m.txn});
    v.isWrite = m.isWrite;
    v.hadCopy = m.hadLine;
    v.predicted = m.out.pred.valid();
    v.set = targets;
    sendMsg(v);
}

void
MulticastMemSys::onSnoopArrival(const Msg &m)
{
    trainExternalAt(m.dst, m.line, m.requester, m.isWrite);
}

bool
MulticastMemSys::allResponsesIn(const Mshr &m) const
{
    // The grant names the ack set: every node snooped by either side.
    return m.ordered && m.peerResponses >= m.mustAck.count();
}

void
MulticastMemSys::onGrant(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    SPP_ASSERT(m, "multicast grant for missing txn");
    SPP_ASSERT(!m->ordered, "duplicate multicast grant");
    m->ordered = true;
    m->mustAck = msg.set;
    if (m->isWrite)
        m->needData = msg.needData;
    checkCompletion(*m);
}

void
MulticastMemSys::onVerify(const Msg &m)
{
    // Pool-slot capture: a Msg (with its multi-word CoreSet) exceeds
    // the inline action capacity, so the deferred lookup carries a
    // slot pointer instead of the message itself.
    Msg *pending = msg_pool_.acquire();
    *pending = m;
    eq_.scheduleAfter(cfg_.dirLatency, [this, pending]() {
        processVerify(*pending);
        msg_pool_.release(pending);
    });
}

void
MulticastMemSys::processVerify(const Msg &m)
{
    HomeDirectory::Entry &e = dir_.at(m.line);
    const CoreId home = map_.homeNode(m.line);
    const TxnKey key{m.requester, m.txn};
    CoreSet snooped = m.set;
    bool need_data = true;

    if (m.isWrite) {
        const CoreSet required = dir_.others(e, m.requester);
        const CoreSet missing = required - m.set;
        for (CoreId t : missing)
            sendSnoop(home, t, m);
        snooped |= missing;
        if (!missing.empty())
            ++insufficient_masks_;

        // An existing owner is in `required`, hence snooped; its
        // ackInv carries the data.
        need_data = !(m.hadCopy && dir_.mayShare(e, m.requester));
        if (need_data && e.owner == invalidCore)
            sendMemoryData(m.line, key, Mesif::modified);
        dir_.write(e, m.requester);
    } else if (e.owner != invalidCore && e.owner != m.requester) {
        if (!m.set.test(e.owner)) {
            sendSnoop(home, e.owner, m);
            snooped.set(e.owner);
            ++insufficient_masks_;
        }
        dir_.readFromOwner(e, m.requester);
    } else {
        sendMemoryData(m.line, key, dir_.readFromMemory(e, m.requester));
    }

    Msg g = txnMsg(MsgType::grant, m.line, home, m.requester, key);
    g.set = snooped;
    g.needData = need_data;
    sendMsg(g);
}

void
MulticastMemSys::onWriteback(CoreId core, Addr line)
{
    dir_.writeback(line, core);
}

void
MulticastMemSys::handlePolicyMsg(const Msg &m)
{
    switch (m.type) {
      case MsgType::reqRead:
      case MsgType::reqWrite:
        onVerify(m);
        break;
      case MsgType::grant:
        onGrant(m);
        break;
      case MsgType::dirUpdate:
        depositMemVersion(m.line, m.version);
        break;
      default:
        SPP_PANIC("multicast protocol got {}", toString(m.type));
    }
}

void
MulticastMemSys::hashState(StateHasher &h) const
{
    SnoopMemSys::hashState(h);
    dir_.hashInto(h);
}

void
MulticastMemSys::checkDirectory() const
{
    dir_.check([this](CoreId c, Addr line) {
        return peerView(c, line).state;
    });
}

} // namespace spp
