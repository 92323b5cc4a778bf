#include "coherence/directory_protocol.hh"

namespace spp {

DirectoryMemSys::DirectoryMemSys(const Config &cfg, EventQueue &eq,
                                 Mesh &mesh,
                                 DestinationPredictor *predictor)
    : MemSys(cfg, eq, mesh, predictor),
      sharer_layout_(SharerLayout::fromConfig(cfg))
{
}

DirEntry &
DirectoryMemSys::dirAt(Addr line)
{
    return dir_
        .try_emplace(line, DirEntry{SharerTracker(sharer_layout_),
                                    invalidCore})
        .first->second;
}

// ---------------------------------------------------------------------
// Requester side
// ---------------------------------------------------------------------

void
DirectoryMemSys::startMiss(Mshr &m)
{
    Msg req;
    req.type = m.isWrite ? MsgType::reqWrite : MsgType::reqRead;
    req.line = m.line;
    req.src = m.core;
    req.dst = map_.homeNode(m.line);
    req.requester = m.core;
    req.txn = m.txn;
    req.isWrite = m.isWrite;
    req.hadCopy = m.hadLine;
    req.predicted = m.out.pred.valid();
    req.set = m.out.pred.targets;
    sendMsg(req);

    if (m.out.pred.valid()) {
        for (CoreId t : m.out.pred.targets) {
            Msg p;
            p.type = m.isWrite ? MsgType::predWrite : MsgType::predRead;
            p.line = m.line;
            p.src = m.core;
            p.dst = t;
            p.requester = m.core;
            p.txn = m.txn;
            p.isWrite = m.isWrite;
            p.predicted = true;
            sendMsg(p);
            ++m.predRespPending;
        }
    }
}

void
DirectoryMemSys::onData(const Msg &msg)
{
    Mshr *m = mshrFor(msg.dst, msg.line);
    SPP_ASSERT(m, "data for missing MSHR at core {}", msg.dst);
    absorbData(*m, msg);
    if (msg.predicted) {
        SPP_ASSERT(m->predRespPending > 0, "unexpected pred response");
        --m->predRespPending;
    }
    checkCompletion(*m);
}

void
DirectoryMemSys::onAckInv(const Msg &msg)
{
    Mshr *m = mshrFor(msg.dst, msg.line);
    SPP_ASSERT(m, "ackInv for missing MSHR at core {}", msg.dst);
    m->ackedBy.set(msg.src);
    if (msg.hadCopy)
        m->out.servicedBy.set(msg.src);
    if (msg.ownerAck) {
        // The previous owner handed us (possibly dirty) data. This
        // can race a memory data message for the same miss (e.g. the
        // directory serviced the write from memory while the owner's
        // copy sat un-noticed in its writeback buffer): absorb keeps
        // whichever version is freshest instead of asserting.
        absorbData(*m, msg);
    }
    if (msg.predicted) {
        SPP_ASSERT(m->predRespPending > 0, "unexpected pred response");
        --m->predRespPending;
    }
    checkCompletion(*m);
}

void
DirectoryMemSys::onNack(const Msg &msg)
{
    Mshr *m = mshrFor(msg.dst, msg.line);
    SPP_ASSERT(m, "nack for missing MSHR at core {}", msg.dst);
    m->nackedBy.set(msg.src);
    // Nacks only answer predicted requests today, but guard on the
    // flag like onData/onAckInv do instead of asserting blindly: a
    // future non-predicted nack path must not corrupt the predicted
    // response count.
    if (msg.predicted) {
        SPP_ASSERT(m->predRespPending > 0, "unexpected nack");
        --m->predRespPending;
    }

    if (m->isWrite) {
        maybeRetryNacked(*m);
    } else if (m->predRespPending == 0 && !m->dataReceived &&
               !m->predFailedSent) {
        // Every predicted target refused and no data is on the way
        // from the directory: escalate so the home services the read.
        m->predFailedSent = true;
        Msg f;
        f.type = MsgType::predFailed;
        f.line = m->line;
        f.src = m->core;
        f.dst = map_.homeNode(m->line);
        f.requester = m->core;
        f.txn = m->txn;
        sendMsg(f);
    }
    checkCompletion(*m);
}

void
DirectoryMemSys::onGrant(const Msg &msg)
{
    Mshr *m = mshrFor(msg.dst, msg.line);
    SPP_ASSERT(m, "grant for missing MSHR at core {}", msg.dst);
    SPP_ASSERT(!m->grantReceived, "duplicate grant");
    m->grantReceived = true;
    m->mustAck = msg.set;
    m->needData = msg.needData;
    maybeRetryNacked(*m);
    checkCompletion(*m);
}

void
DirectoryMemSys::maybeRetryNacked(Mshr &m)
{
    if (!m.isWrite || !m.grantReceived)
        return;
    // Predicted targets that Nacked but are in the authoritative ack
    // set must be re-invalidated directly by the requester.
    const CoreSet to_retry = (m.nackedBy & m.mustAck) - m.retried;
    for (CoreId t : to_retry) {
        m.retried.set(t);
        Msg inv;
        inv.type = MsgType::inv;
        inv.line = m.line;
        inv.src = m.core;
        inv.dst = t;
        inv.requester = m.core;
        inv.txn = m.txn;
        sendMsg(inv);
    }
}

void
DirectoryMemSys::checkCompletion(Mshr &m)
{
    if (m.predRespPending != 0)
        return;
    if (m.isWrite) {
        if (!m.grantReceived || !m.ackedBy.contains(m.mustAck))
            return;
        if (m.needData && !m.dataReceived)
            return;
    } else {
        if (!m.dataReceived)
            return;
    }
    if (m.dataFromPeer && !m.predFailedSent && m.out.pred.valid() &&
        m.out.pred.targets.test(m.dataSource)) {
        ++indirections_avoided_;
    }
    completeMiss(m);
}

void
DirectoryMemSys::onCompleteMiss(Mshr &m)
{
    if (cfg_.injectBug == 3 && m.txn % 61 == 0)
        return; // Checker self-test fault: lost unblock leaks the lock.
    Msg u;
    u.type = MsgType::unblock;
    u.line = m.line;
    u.src = m.core;
    u.dst = map_.homeNode(m.line);
    u.requester = m.core;
    u.txn = m.txn;
    u.becameOwner = !m.isWrite;
    sendMsg(u);
}

// ---------------------------------------------------------------------
// Home directory side
// ---------------------------------------------------------------------

void
DirectoryMemSys::onRequest(const Msg &m)
{
    const TxnKey key{m.requester, m.txn};
    // Park the request in a message-pool slot while it waits for the
    // line lock and the directory lookup: a Msg carries a multi-word
    // CoreSet, so capturing it by value would overflow the inline
    // action storage (and reintroduce per-request heap allocation).
    Msg *pending = msg_pool_.acquire();
    *pending = m;
    auto process = [this, pending]() {
        // Directory lookup latency before any action.
        eq_.scheduleAfter(cfg_.dirLatency, [this, pending]() {
            processRequest(*pending);
            msg_pool_.release(pending);
        });
    };
    if (locks_.acquireOrQueue(m.line, key, process))
        process();
}

void
DirectoryMemSys::processRequest(const Msg &m)
{
    DirTxn &t = txns_.findOrInsert(m.line);
    t.key = TxnKey{m.requester, m.txn};
    t.waitingPeer = false;
    if (m.isWrite)
        processWrite(m);
    else
        processRead(m);
}

void
DirectoryMemSys::sendMemoryData(Addr line, CoreId requester,
                                Mesif fill_state)
{
    eq_.scheduleAfter(memAccessLatency(line), [this, line, requester,
                                        fill_state]() {
        Msg d;
        d.type = MsgType::data;
        d.line = line;
        d.src = map_.homeNode(line);
        d.dst = requester;
        d.requester = requester;
        d.fromMemory = true;
        d.fillState = fill_state;
        d.version = memVersion(line);
        if (cfg_.injectBug == 2 && d.version > 0)
            --d.version; // Checker self-test fault: stale memory data.
        sendMsg(d);
    });
}

void
DirectoryMemSys::serviceReadFromDir(const Msg &m, DirEntry &e)
{
    if (e.owner != invalidCore) {
        SPP_ASSERT(e.owner != m.requester,
                   "read miss by core {} on a line it owns",
                   m.requester);
        Msg f;
        f.type = MsgType::fwdRead;
        f.line = m.line;
        f.src = map_.homeNode(m.line);
        f.dst = e.owner;
        f.requester = m.requester;
        f.txn = m.txn;
        sendMsg(f);
    } else {
        const bool solo = e.sharers.others(m.requester).empty();
        sendMemoryData(m.line, m.requester,
                       solo ? Mesif::exclusive
                            : cfg_.cleanSharedFill());
        e.sharers.set(m.requester);
        e.owner = solo || cfg_.enableFState ? m.requester
                                            : invalidCore;
        return;
    }
    e.sharers.set(m.requester);
    // MESIF: the requester becomes the new Forwarding owner. Plain
    // MESI has no clean owner once the line is shared.
    e.owner = cfg_.enableFState ? m.requester : invalidCore;
}

void
DirectoryMemSys::processRead(const Msg &m)
{
    DirEntry &e = dirAt(m.line);
    const TxnKey key{m.requester, m.txn};
    if (m.predicted && e.owner != invalidCore &&
        e.owner != m.requester && m.set.test(e.owner) &&
        !takeEarlyPredFailure(m.line, key)) {
        // The predicted owner services the miss directly; the final
        // sharing state is applied when the requester unblocks. The
        // unblock may even have arrived already (a nearby owner can
        // satisfy the miss before the directory's lookup finishes).
        if (takeEarly(early_unblock_, m.line, key)) {
            e.sharers.set(m.requester);
            e.owner = cfg_.enableFState ? m.requester : invalidCore;
            txns_.erase(m.line);
            locks_.release(m.line, key);
            return;
        }
        txns_.findOrInsert(m.line).waitingPeer = true;
        return;
    }
    serviceReadFromDir(m, e);
}

bool
DirectoryMemSys::takeEarly(
    std::unordered_map<Addr, std::vector<TxnKey>> &map, Addr line,
    const TxnKey &key)
{
    auto it = map.find(line);
    if (it == map.end())
        return false;
    auto &keys = it->second;
    for (auto k = keys.begin(); k != keys.end(); ++k) {
        if (*k == key) {
            keys.erase(k);
            if (keys.empty())
                map.erase(it);
            return true;
        }
    }
    return false;
}

bool
DirectoryMemSys::takeEarlyPredFailure(Addr line, const TxnKey &key)
{
    return takeEarly(early_pred_failed_, line, key);
}

void
DirectoryMemSys::processWrite(const Msg &m)
{
    DirEntry &e = dirAt(m.line);
    CoreSet must_ack = e.sharers.others(m.requester);
    if (cfg_.injectBug == 1) {
        // Checker self-test fault: silently forget one sharer, as a
        // real lost-invalidation bug would. Its stale copy survives
        // the write and trips the SWMR/freshness scan.
        for (CoreId t : must_ack) {
            must_ack.reset(t);
            break;
        }
    }
    const bool upgrade = m.hadCopy && e.sharers.test(m.requester);
    const bool need_data = !upgrade;
    const CoreSet predicted = m.predicted ? m.set : CoreSet{};

    // Invalidate unpredicted sharers from the directory; predicted
    // ones are (normally) handled by the direct predicted requests.
    for (CoreId t : must_ack - predicted) {
        Msg inv;
        inv.type = MsgType::inv;
        inv.line = m.line;
        inv.src = map_.homeNode(m.line);
        inv.dst = t;
        inv.requester = m.requester;
        inv.txn = m.txn;
        sendMsg(inv);
    }

    if (need_data) {
        if (e.owner == invalidCore) {
            sendMemoryData(m.line, m.requester, Mesif::modified);
        } else if (e.owner == m.requester) {
            SPP_PANIC("write miss by core {} on a line it owns",
                      m.requester);
        }
        // Otherwise the owner is in must_ack: either its predicted
        // invalidation or the directory's inv above returns the data
        // with ownerAck.
    }

    Msg g;
    g.type = MsgType::grant;
    g.line = m.line;
    g.src = map_.homeNode(m.line);
    g.dst = m.requester;
    g.requester = m.requester;
    g.txn = m.txn;
    g.set = must_ack;
    g.needData = need_data;
    sendMsg(g);

    e.sharers.setSingle(m.requester);
    e.owner = m.requester;
}

void
DirectoryMemSys::onPredFailed(const Msg &m)
{
    const TxnKey key{m.requester, m.txn};
    DirTxn *t = txns_.find(m.line);
    if (t == nullptr || !(t->key == key)) {
        // The request itself is still queued behind another
        // transaction; remember the failure for processRead.
        early_pred_failed_[m.line].push_back(key);
        return;
    }
    if (!t->waitingPeer)
        return; // The directory path is already servicing the read.
    t->waitingPeer = false;
    serviceReadFromDir(m, dirAt(m.line));
}

void
DirectoryMemSys::onUnblock(const Msg &m)
{
    const TxnKey key{m.requester, m.txn};
    DirTxn *t = txns_.find(m.line);
    if (t == nullptr) {
        // The requester finished (via the predicted peer path)
        // before the directory's lookup of its request completed;
        // processRead picks the record up and releases.
        SPP_ASSERT(m.becameOwner,
                   "early unblock for a write transaction");
        early_unblock_[m.line].push_back(key);
        return;
    }
    SPP_ASSERT(t->key == key,
               "unblock for a foreign transaction");
    if (t->waitingPeer && m.becameOwner) {
        // Predicted read serviced entirely by the peer path: record
        // the requester as the new F holder now (plain MESI keeps no
        // clean owner).
        DirEntry &e = dirAt(m.line);
        e.sharers.set(m.requester);
        e.owner = cfg_.enableFState ? m.requester : invalidCore;
    }
    txns_.erase(m.line);
    // Drop a stale early predFailed record, if any (the read was
    // serviced by the directory path despite the escalation).
    takeEarly(early_pred_failed_, m.line, key);
    locks_.release(m.line, key);
}

void
DirectoryMemSys::onWbNotice(const Msg &m)
{
    onWriteback(m.requester, m.line);
    if (m.ownerAck)
        depositMemVersion(m.line, m.version);
    applyWriteback(m.requester, m.line);
    locks_.release(m.line, TxnKey{m.requester, m.txn});
}

void
DirectoryMemSys::onWriteback(CoreId core, Addr line)
{
    auto it = dir_.find(line);
    if (it == dir_.end())
        return;
    it->second.sharers.reset(core);
    if (it->second.owner == core)
        it->second.owner = invalidCore;
}

void
DirectoryMemSys::onDirUpdate(const Msg &m)
{
    // Dirty-data deposit from an owner that downgraded on a read
    // forward; carries no sharing-state change.
    depositMemVersion(m.line, m.version);
}

// ---------------------------------------------------------------------
// Peer side
// ---------------------------------------------------------------------

void
DirectoryMemSys::onFwdRead(const Msg &m)
{
    const CoreId self = m.dst;
    countSnoop();
    trainExternalAt(self, m.line, m.requester, false);
    PeerView v = peerView(self, m.line);
    SPP_ASSERT(v.valid && canForward(v.state),
               "fwdRead at core {} without a forwardable copy", self);

    const Tick lat = cfg_.l2TagLatency + cfg_.l2DataLatency;
    if (v.state == Mesif::modified) {
        // Downgrade writes the dirty line back to the home tile.
        Msg dep;
        dep.type = MsgType::dirUpdate;
        dep.line = m.line;
        dep.src = self;
        dep.dst = map_.homeNode(m.line);
        dep.requester = m.requester;
        dep.version = v.version;
        sendMsgAfter(lat, dep);
    }
    downgradeToShared(self, m.line);

    Msg d;
    d.type = MsgType::data;
    d.line = m.line;
    d.src = self;
    d.dst = m.requester;
    d.requester = m.requester;
    d.txn = m.txn;
    d.fillState = cfg_.cleanSharedFill();
    d.version = v.version;
    sendMsgAfter(lat, d);
}

void
DirectoryMemSys::onInv(const Msg &m)
{
    const CoreId self = m.dst;
    countSnoop();
    trainExternalAt(self, m.line, m.requester, true);
    PeerView v = peerView(self, m.line);

    Msg a;
    a.type = MsgType::ackInv;
    a.line = m.line;
    a.src = self;
    a.dst = m.requester;
    a.requester = m.requester;
    a.txn = m.txn;
    a.hadCopy = v.valid;
    Tick lat = cfg_.l2TagLatency;
    if (v.valid && canForward(v.state)) {
        a.ownerAck = true;
        a.version = v.version;
        lat += cfg_.l2DataLatency;
    }
    if (v.valid)
        invalidateAt(self, m.line);
    sendMsgAfter(lat, a);
}

void
DirectoryMemSys::onPredRequest(const Msg &m)
{
    const CoreId self = m.dst;
    const TxnKey key{m.requester, m.txn};

    auto send_nack = [this, &m, self]() {
        Msg n;
        n.type = MsgType::nack;
        n.line = m.line;
        n.src = self;
        n.dst = m.requester;
        n.requester = m.requester;
        n.txn = m.txn;
        // A nack always answers a predicted request; carry the flag
        // so the requester decrements predRespPending (onNack guards
        // on it, like the other prediction responses).
        n.predicted = true;
        sendMsgAfter(cfg_.l2TagLatency, n);
    };

    // Accept only when no *other* transaction is in flight on this
    // line (races resolve to the baseline directory path).
    if (locks_.isLockedByOther(m.line, key)) {
        send_nack();
        return;
    }
    countSnoop();
    PeerView v = peerView(self, m.line);
    if (v.noticed) {
        // The copy is logically gone (its writeback has been applied
        // at the home); answering from it would race the directory's
        // own service of this miss.
        send_nack();
        return;
    }

    if (m.type == MsgType::predRead) {
        if (!v.valid || !canForward(v.state)) {
            send_nack();
            return;
        }
        // Reserve the line for this transaction (the requester's
        // directory request joins it on arrival).
        const bool ok = locks_.tryAcquire(m.line, key);
        SPP_ASSERT(ok, "pred reservation raced");
        trainExternalAt(self, m.line, m.requester, false);
        const Tick lat = cfg_.l2TagLatency + cfg_.l2DataLatency;
        if (v.state == Mesif::modified) {
            Msg dep;
            dep.type = MsgType::dirUpdate;
            dep.line = m.line;
            dep.src = self;
            dep.dst = map_.homeNode(m.line);
            dep.requester = m.requester;
            dep.version = v.version;
            sendMsgAfter(lat, dep);
        }
        downgradeToShared(self, m.line);
        Msg d;
        d.type = MsgType::data;
        d.line = m.line;
        d.src = self;
        d.dst = m.requester;
        d.requester = m.requester;
        d.txn = m.txn;
        d.predicted = true;
        d.fillState = cfg_.cleanSharedFill();
        d.version = v.version;
        sendMsgAfter(lat, d);
        return;
    }

    // predWrite.
    if (!v.valid) {
        send_nack();
        return;
    }
    const bool ok = locks_.tryAcquire(m.line, key);
    SPP_ASSERT(ok, "pred reservation raced");
    trainExternalAt(self, m.line, m.requester, true);
    Msg a;
    a.type = MsgType::ackInv;
    a.line = m.line;
    a.src = self;
    a.dst = m.requester;
    a.requester = m.requester;
    a.txn = m.txn;
    a.predicted = true;
    a.hadCopy = true;
    Tick lat = cfg_.l2TagLatency;
    if (canForward(v.state)) {
        a.ownerAck = true;
        a.version = v.version;
        lat += cfg_.l2DataLatency;
    }
    invalidateAt(self, m.line);
    sendMsgAfter(lat, a);
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

void
DirectoryMemSys::handleMsg(const Msg &m)
{
    switch (m.type) {
      case MsgType::reqRead:
      case MsgType::reqWrite:
        onRequest(m);
        break;
      case MsgType::predRead:
      case MsgType::predWrite:
        onPredRequest(m);
        break;
      case MsgType::predFailed:
        onPredFailed(m);
        break;
      case MsgType::fwdRead:
        onFwdRead(m);
        break;
      case MsgType::inv:
        onInv(m);
        break;
      case MsgType::data:
        onData(m);
        break;
      case MsgType::ackInv:
        onAckInv(m);
        break;
      case MsgType::nack:
        onNack(m);
        break;
      case MsgType::grant:
        onGrant(m);
        break;
      case MsgType::unblock:
        onUnblock(m);
        break;
      case MsgType::wbNotice:
        onWbNotice(m);
        break;
      case MsgType::wbAck:
        finishWriteback(m.dst, m.line);
        break;
      case MsgType::dirUpdate:
        onDirUpdate(m);
        break;
      default:
        SPP_PANIC("directory protocol got {}", toString(m.type));
    }
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

const DirEntry *
DirectoryMemSys::dirEntry(Addr line) const
{
    auto it = dir_.find(line);
    return it == dir_.end() ? nullptr : &it->second;
}

void
DirectoryMemSys::checkDirectory() const
{
    // lint: allow(unordered-iter) — order-independent assertion scan.
    for (const auto &[line, e] : dir_) {
        if (e.owner != invalidCore) {
            SPP_ASSERT(e.sharers.test(e.owner),
                       "owner {} of line {} not in sharer set",
                       e.owner, line);
            PeerView v = peerView(e.owner, line);
            SPP_ASSERT(v.valid && canForward(v.state),
                       "directory owner {} of line {} holds {}",
                       e.owner, line,
                       v.valid ? toString(v.state) : "nothing");
        }
        // Every actual holder must be a recorded sharer (the reverse
        // need not hold: silent Shared evictions leave stale bits).
        for (unsigned c = 0; c < n_cores_; ++c) {
            PeerView v = peerView(c, line);
            SPP_ASSERT(!v.valid || e.sharers.test(c),
                       "core {} holds line {} unknown to directory",
                       c, line);
            if (v.valid && canForward(v.state)) {
                SPP_ASSERT(e.owner == c,
                           "core {} holds {} of line {} but owner "
                           "is {}", c, toString(v.state), line,
                           e.owner);
            }
        }
    }
}

void
DirectoryMemSys::hashState(StateHasher &h) const
{
    MemSys::hashState(h);
    // Sharer trackers hash by behavior: members() + overflow is
    // injective up to behavioral equivalence in every format (an
    // overflowed limited entry acts the same whatever its retained
    // pointers).
    // lint: allow(unordered-iter) — commutative fold.
    for (const auto &[line, e] : dir_) {
        StateHasher sub;
        sub.mix(line);
        sub.mix(e.owner);
        sub.mix(e.sharers.overflowed());
        hashCoreSet(sub, e.sharers.members());
        h.mixUnordered(sub.value());
    }
    txns_.forEach([&](std::uint64_t line, const DirTxn &t) {
        StateHasher sub;
        sub.mix(line);
        sub.mix(t.key.requester);
        sub.mix(t.key.txn);
        sub.mix(t.waitingPeer);
        h.mixUnordered(sub.value());
    });
    // lint: allow(unordered-iter) — commutative fold.
    for (const auto &[line, keys] : early_pred_failed_) {
        StateHasher sub;
        sub.mix(line);
        for (const TxnKey &k : keys) {
            sub.mix(k.requester);
            sub.mix(k.txn);
        }
        h.mixUnordered(sub.value());
    }
    // lint: allow(unordered-iter) — commutative fold.
    for (const auto &[line, keys] : early_unblock_) {
        StateHasher sub;
        sub.mix(~line);
        for (const TxnKey &k : keys) {
            sub.mix(k.requester);
            sub.mix(k.txn);
        }
        h.mixUnordered(sub.value());
    }
}

} // namespace spp
