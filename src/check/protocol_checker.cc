#include "check/protocol_checker.hh"

#include <algorithm>

#include "coherence/mem_sys.hh"
#include "common/logging.hh"

namespace spp {

namespace {

/** A deposit-bearing message raises the memory version on delivery. */
bool
depositsAtHome(MsgType t)
{
    return t == MsgType::wbNotice || t == MsgType::dirUpdate;
}

} // namespace

ProtocolChecker::ProtocolChecker(MemSys &mem, CheckerOptions opts)
    : mem_(mem), opts_(opts)
{
    mem_.setChecker(this);
}

ProtocolChecker::~ProtocolChecker()
{
    mem_.setChecker(nullptr);
}

void
ProtocolChecker::fail(std::string_view rule, std::string detail)
{
    const Tick now = mem_.eq_.curTick();
    if (opts_.abortOnViolation) {
        SPP_PANIC("protocol invariant violated [{}] at tick {}: {}\n"
                  "recent messages:\n{}",
                  rule, now, detail, dumpTrace());
    }
    if (violations_.size() < opts_.maxViolations)
        violations_.push_back(
            Violation{now, std::string(rule), std::move(detail)});
}

void
ProtocolChecker::record(bool deliver, const Msg &m)
{
    if (!opts_.traceDepth)
        return;
    if (trace_.size() >= opts_.traceDepth)
        trace_.pop_front();
    trace_.push_back(TracedMsg{mem_.eq_.curTick(), deliver, m});
}

std::string
ProtocolChecker::dumpTrace() const
{
    std::string out;
    for (const TracedMsg &t : trace_) {
        out += strfmt("  [{}] {} {} line={} {}->{} req={} txn={} "
                      "ver={}{}{}{}{}\n",
                      t.tick, t.deliver ? "dlv" : "snd",
                      toString(t.msg.type), t.msg.line, t.msg.src,
                      t.msg.dst, t.msg.requester, t.msg.txn,
                      t.msg.version, t.msg.isWrite ? " W" : "",
                      t.msg.predicted ? " pred" : "",
                      t.msg.fromMemory ? " mem" : "",
                      t.msg.ownerAck ? " ownerAck" : "");
    }
    return out;
}

void
ProtocolChecker::sanity(const Msg &m)
{
    if (m.src >= mem_.n_cores_ || m.dst >= mem_.n_cores_)
        fail("msg-endpoints",
             strfmt("{} line {} has tile(s) out of range: {} -> {}",
                    toString(m.type), m.line, m.src, m.dst));
    if (m.version > mem_.version_counter_)
        fail("version-range",
             strfmt("{} line {} carries version {} beyond the global "
                    "counter {}",
                    toString(m.type), m.line, m.version,
                    mem_.version_counter_));
    if (m.type == MsgType::nack && !m.predicted)
        fail("nack-unpredicted",
             strfmt("nack for line {} txn {} without the predicted "
                    "flag; the requester cannot account for it",
                    m.line, m.txn));
    if (m.type == MsgType::data && m.fromMemory &&
        m.version != mem_.memVersion(m.line)) {
        fail("mem-data-freshness",
             strfmt("memory data for line {} carries version {} but "
                    "memory holds {}",
                    m.line, m.version, mem_.memVersion(m.line)));
    }
}

void
ProtocolChecker::onSend(const Msg &m)
{
    ++sent_;
    record(false, m);
    sanity(m);
    auto &seen = max_seen_[m.line];
    seen = std::max(seen, m.version);
    if (depositsAtHome(m.type))
        ++deposits_in_flight_[m.line];
}

void
ProtocolChecker::onDeliver(const Msg &m)
{
    ++delivered_;
    record(true, m);
    // State is inspected *before* the handler runs, so the delivered
    // deposit still counts as in flight during this scan.
    scanLine(m.line);
    if (depositsAtHome(m.type)) {
        auto it = deposits_in_flight_.find(m.line);
        if (it != deposits_in_flight_.end() && --it->second == 0)
            deposits_in_flight_.erase(it);
    }
    if (opts_.watchdogTicks && (delivered_ & 63) == 0)
        watchdog();
}

void
ProtocolChecker::scanLine(Addr line)
{
    // Transients (copies in motion, directories being rewritten) all
    // happen under the per-line home lock; only an unlocked line has
    // to look consistent.
    if (mem_.locks_.isLocked(line))
        return;

    const std::uint64_t mem_ver = mem_.memVersion(line);
    unsigned copies = 0, writable = 0, forwarding = 0;
    bool have_clean = false;
    std::uint64_t clean_ver = 0;
    std::uint64_t max_ver = mem_ver;
    std::string states;

    for (CoreId c = 0; c < mem_.n_cores_; ++c) {
        const MemSys::PeerView v = mem_.peerView(c, line);
        if (!v.valid)
            continue;
        ++copies;
        max_ver = std::max(max_ver, v.version);
        states += strfmt(" core{}={}v{}{}", c, toString(v.state),
                         v.version, v.inBuffer ? "(wb)" : "");
        if (isWritable(v.state))
            ++writable;
        if (v.state == Mesif::forwarding)
            ++forwarding;
        if (v.state == Mesif::shared ||
            v.state == Mesif::forwarding) {
            if (have_clean && clean_ver != v.version)
                fail("clean-version-split",
                     strfmt("clean copies of line {} disagree: {} vs "
                            "{} ({})",
                            line, clean_ver, v.version, states));
            have_clean = true;
            clean_ver = v.version;
        }
        if (v.version < mem_ver)
            fail("stale-copy",
                 strfmt("core {} holds line {} at version {} older "
                        "than memory's {}",
                        c, line, v.version, mem_ver));
    }

    if (writable && copies > 1)
        fail("swmr", strfmt("line {} has a writable copy coexisting "
                            "with {} other cop{}:{}",
                            line, copies - 1,
                            copies == 2 ? "y" : "ies", states));
    if (writable > 1)
        fail("swmr", strfmt("line {} has {} writable copies:{}", line,
                            writable, states));
    if (forwarding > 1)
        fail("multi-forwarder",
             strfmt("line {} has {} Forwarding copies:{}", line,
                    forwarding, states));

    auto &seen = max_seen_[line];
    seen = std::max(seen, max_ver);
    if (copies == 0 && !deposits_in_flight_.contains(line) &&
        mem_ver < seen) {
        fail("lost-update",
             strfmt("line {} has no cached copy and no writeback in "
                    "flight, yet memory holds version {} < newest "
                    "observed {}",
                    line, mem_ver, seen));
    }
}

void
ProtocolChecker::watchdog()
{
    const Tick now = mem_.eq_.curTick();
    for (const auto &slot : mem_.mshr_) {
        if (!slot)
            continue;
        const Tick age = now - slot->issueTick;
        if (age > opts_.watchdogTicks)
            fail("no-progress",
                 strfmt("core {} miss on line {} (txn {}) outstanding "
                        "for {} ticks",
                        slot->core, slot->line, slot->txn, age));
    }
}

void
ProtocolChecker::onSyncPoint(CoreId core, const SyncPointInfo &info)
{
    (void)core;
    if (info.type != SyncType::barrier)
        return;
    // Cores are in order with one outstanding access, and every
    // thread is blocked in the barrier at the release instant, so no
    // data-region demand miss can be outstanding (sync-region traffic
    // of the barrier itself is exempt).
    for (const auto &slot : mem_.mshr_) {
        if (slot && slot->line >= opts_.dataBase)
            fail("barrier-quiesce",
                 strfmt("core {} still has a data-region miss on line "
                        "{} (txn {}) at a barrier release",
                        slot->core, slot->line, slot->txn));
    }
}

void
ProtocolChecker::checkQuiescent()
{
    for (const auto &slot : mem_.mshr_) {
        if (slot)
            fail("mshr-leak",
                 strfmt("core {} miss on line {} (txn {}) leaked past "
                        "end of run",
                        slot->core, slot->line, slot->txn));
    }
    if (!mem_.drained())
        fail("not-drained",
             strfmt("locks/writebacks outstanding at end of run:\n{}",
                    mem_.dumpOutstanding()));
    if (const std::size_t n = mem_.outstandingTxns())
        fail("lingering-leak",
             strfmt("{} resumed-but-undrained transaction(s) at end "
                    "of run:\n{}",
                    n, mem_.dumpOutstanding()));

    // Every line that ever moved must pass the full scan; with the
    // system drained no lock gates it.
    std::vector<Addr> lines;
    lines.reserve(max_seen_.size() + mem_.mem_version_.size());
    // lint: allow(unordered-iter) — collected, then sorted below.
    for (const auto &[line, ver] : max_seen_)
        lines.push_back(line);
    mem_.mem_version_.forEach(
        [&lines](Addr line, std::uint64_t) { lines.push_back(line); });
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    for (Addr line : lines)
        scanLine(line);
}

} // namespace spp
