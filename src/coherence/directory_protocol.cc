#include "coherence/directory_protocol.hh"

namespace spp {

DirectoryMemSys::DirectoryMemSys(const Config &cfg, EventQueue &eq,
                                 Mesh &mesh,
                                 DestinationPredictor *predictor,
                                 AccessCompletion &completion)
    : MemSys(cfg, eq, mesh, predictor, completion), dir_(cfg)
{
}

// ---------------------------------------------------------------------
// Requester side
// ---------------------------------------------------------------------

void
DirectoryMemSys::startMiss(Mshr &m)
{
    const TxnKey key{m.core, m.txn};
    Msg req = txnMsg(m.isWrite ? MsgType::reqWrite : MsgType::reqRead,
                     m.line, m.core, map_.homeNode(m.line), key);
    req.isWrite = m.isWrite;
    req.hadCopy = m.hadLine;
    req.predicted = m.out.pred.valid();
    req.set = m.out.pred.targets;
    sendMsg(req);

    if (m.out.pred.valid()) {
        for (CoreId t : m.out.pred.targets) {
            Msg p = txnMsg(m.isWrite ? MsgType::predWrite
                                     : MsgType::predRead,
                           m.line, m.core, t, key);
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
        sendMsg(txnMsg(MsgType::predFailed, m->line, m->core,
                       map_.homeNode(m->line), TxnKey{m->core, m->txn}));
    }
    checkCompletion(*m);
}

void
DirectoryMemSys::onGrant(const Msg &msg)
{
    Mshr *m = mshrFor(msg.dst, msg.line);
    SPP_ASSERT(m, "grant for missing MSHR at core {}", msg.dst);
    SPP_ASSERT(!m->ordered, "duplicate grant");
    m->ordered = true;
    m->mustAck = msg.set;
    m->needData = msg.needData;
    maybeRetryNacked(*m);
    checkCompletion(*m);
}

void
DirectoryMemSys::maybeRetryNacked(Mshr &m)
{
    if (!m.isWrite || !m.ordered)
        return;
    // Predicted targets that Nacked but are in the authoritative ack
    // set must be re-invalidated directly by the requester.
    const CoreSet to_retry = (m.nackedBy & m.mustAck) - m.retried;
    for (CoreId t : to_retry) {
        m.retried.set(t);
        sendMsg(txnMsg(MsgType::inv, m.line, m.core, t,
                       TxnKey{m.core, m.txn}));
    }
}

void
DirectoryMemSys::checkCompletion(Mshr &m)
{
    if (m.predRespPending != 0)
        return;
    if (m.isWrite) {
        if (!m.ordered || !m.ackedBy.contains(m.mustAck))
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
    Msg u = txnMsg(MsgType::unblock, m.line, m.core,
                   map_.homeNode(m.line), TxnKey{m.core, m.txn});
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
DirectoryMemSys::sendMemoryData(const Msg &req, Mesif fill_state)
{
    const Addr line = req.line;
    const TxnKey key{req.requester, req.txn};
    eq_.scheduleAfter(memAccessLatency(line), [this, line, key,
                                               fill_state]() {
        Msg d = txnMsg(MsgType::data, line, map_.homeNode(line),
                       key.requester, key);
        d.fromMemory = true;
        d.fillState = fill_state;
        d.version = memVersion(line);
        if (cfg_.injectBug == 2 && d.version > 0)
            --d.version; // Checker self-test fault: stale memory data.
        sendMsg(d);
    });
}

void
DirectoryMemSys::serviceReadFromDir(const Msg &m, HomeDirectory::Entry &e)
{
    if (e.owner == invalidCore) {
        sendMemoryData(m, dir_.readFromMemory(e, m.requester));
        return;
    }
    SPP_ASSERT(e.owner != m.requester,
               "read miss by core {} on a line it owns", m.requester);
    sendMsg(txnMsg(MsgType::fwdRead, m.line, map_.homeNode(m.line),
                   e.owner, TxnKey{m.requester, m.txn}));
    dir_.readFromOwner(e, m.requester);
}

void
DirectoryMemSys::processRead(const Msg &m)
{
    HomeDirectory::Entry &e = dir_.at(m.line);
    const TxnKey key{m.requester, m.txn};
    if (m.predicted && e.owner != invalidCore &&
        e.owner != m.requester && m.set.test(e.owner) &&
        !takeEarly(early_pred_failed_, m.line, key)) {
        // The predicted owner services the miss directly; the final
        // sharing state is applied when the requester unblocks. The
        // unblock may even have arrived already (a nearby owner can
        // satisfy the miss before the directory's lookup finishes).
        if (takeEarly(early_unblock_, m.line, key)) {
            dir_.readFromOwner(e, m.requester);
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

void
DirectoryMemSys::processWrite(const Msg &m)
{
    HomeDirectory::Entry &e = dir_.at(m.line);
    const TxnKey key{m.requester, m.txn};
    const CoreId home = map_.homeNode(m.line);
    CoreSet must_ack = dir_.others(e, m.requester);
    if (cfg_.injectBug == 1) {
        // Checker self-test fault: silently forget one sharer, as a
        // real lost-invalidation bug would. Its stale copy survives
        // the write and trips the SWMR/freshness scan.
        for (CoreId t : must_ack) {
            must_ack.reset(t);
            break;
        }
    }
    const bool upgrade = m.hadCopy && dir_.mayShare(e, m.requester);
    const bool need_data = !upgrade;
    const CoreSet predicted = m.predicted ? m.set : CoreSet{};

    // Invalidate unpredicted sharers from the directory; predicted
    // ones are (normally) handled by the direct predicted requests.
    for (CoreId t : must_ack - predicted)
        sendMsg(txnMsg(MsgType::inv, m.line, home, t, key));

    if (need_data) {
        if (e.owner == invalidCore) {
            sendMemoryData(m, Mesif::modified);
        } else if (e.owner == m.requester) {
            SPP_PANIC("write miss by core {} on a line it owns",
                      m.requester);
        }
        // Otherwise the owner is in must_ack: either its predicted
        // invalidation or the directory's inv above returns the data
        // with ownerAck.
    }

    Msg g = txnMsg(MsgType::grant, m.line, home, m.requester, key);
    g.set = must_ack;
    g.needData = need_data;
    sendMsg(g);

    dir_.write(e, m.requester);
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
    serviceReadFromDir(m, dir_.at(m.line));
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
        // the requester as the new F holder now.
        dir_.readFromOwner(dir_.at(m.line), m.requester);
    }
    txns_.erase(m.line);
    // Drop a stale early predFailed record, if any (the read was
    // serviced by the directory path despite the escalation).
    takeEarly(early_pred_failed_, m.line, key);
    locks_.release(m.line, key);
}

void
DirectoryMemSys::onWriteback(CoreId core, Addr line)
{
    dir_.writeback(line, core);
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
    const PeerView v = peerView(self, m.line);
    SPP_ASSERT(v.valid && canForward(v.state),
               "fwdRead at core {} without a forwardable copy", self);
    forwardCopy(m, v);
}

void
DirectoryMemSys::onInv(const Msg &m)
{
    const CoreId self = m.dst;
    countSnoop();
    trainExternalAt(self, m.line, m.requester, true);
    invalidateAndAck(m, peerView(self, m.line));
}

void
DirectoryMemSys::onPredRequest(const Msg &m)
{
    const CoreId self = m.dst;
    const TxnKey key{m.requester, m.txn};

    auto send_nack = [this, &m, self, &key]() {
        Msg n = txnMsg(MsgType::nack, m.line, self, m.requester, key);
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
        forwardCopy(m, v);
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
    invalidateAndAck(m, v);
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
        applyWriteback(m);
        break;
      case MsgType::wbAck:
        finishWriteback(m.dst, m.line);
        break;
      case MsgType::dirUpdate:
        // Dirty-data deposit from an owner that downgraded on a read
        // forward; carries no sharing-state change.
        depositMemVersion(m.line, m.version);
        break;
      default:
        SPP_PANIC("directory protocol got {}", toString(m.type));
    }
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

void
DirectoryMemSys::checkDirectory() const
{
    dir_.check([this](CoreId c, Addr line) {
        return peerView(c, line).state;
    });
}

void
DirectoryMemSys::hashState(StateHasher &h) const
{
    MemSys::hashState(h);
    dir_.hashInto(h);
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
