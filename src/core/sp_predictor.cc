#include "core/sp_predictor.hh"

namespace spp {

const char *
toString(PredSource s)
{
    switch (s) {
      case PredSource::none:     return "none";
      case PredSource::warmup:   return "warmup";
      case PredSource::history:  return "history";
      case PredSource::pattern:  return "pattern";
      case PredSource::lock:     return "lock";
      case PredSource::recovery: return "recovery";
      case PredSource::table:    return "table";
    }
    return "?";
}

SpPredictor::SpPredictor(const Config &cfg, unsigned n_cores)
    : cfg_(cfg), n_cores_(n_cores),
      table_(n_cores, cfg.historyDepth),
      epochs_(n_cores)
{
    for (EpochState &e : epochs_) {
        e.counters = CommCounters(n_cores);
        e.confidence = confidenceMax();
    }
}

// ---------------------------------------------------------------------
// Epoch lifecycle
// ---------------------------------------------------------------------

void
SpPredictor::closeEpoch(CoreId core)
{
    EpochState &e = epochs_[core];
    if (e.isCriticalSection) {
        // Critical sections encode only the releaser's ID, which the
        // *next* acquirer records on acquisition (Section 4.2); no
        // hot-set signature is stored for the per-core entry.
        return;
    }
    if (e.commMisses < cfg_.noiseMisses) {
        // "Noisy" instance: too little communication activity for a
        // representative signature (Section 3.4).
        ++sp_stats_.noisyEpochs;
        return;
    }
    const CoreSet sig =
        e.counters.hotSet(cfg_.hotThreshold, cfg_.maxHotSetSize);
    if (sig.empty()) {
        ++sp_stats_.noisyEpochs;
        return;
    }
    table_.storeSignature(core, e.staticId, sig);
}

void
SpPredictor::formPredictor(CoreId core, const SyncPointInfo &info,
                           const CoreSet &prev_hot)
{
    EpochState &e = epochs_[core];
    e.predictor.clear();
    e.source = PredSource::none;

    if (info.type == SyncType::lock) {
        // The retrieved signatures are the last d holders of the
        // lock; their union is the prediction set (Section 4.4).
        CoreSet holders = table_.lockHolders(info.staticId);
        if (cfg_.unionEpochIntoLock)
            holders |= prev_hot;
        holders.reset(core);
        if (!holders.empty()) {
            e.predictor = holders;
            e.source = PredSource::lock;
        }
        return;
    }

    const SpEntry *entry = table_.entry(core, info.staticId);
    if (!entry || entry->sigs.empty())
        return; // d = 0: warm-up extraction happens lazily.

    const auto &sigs = entry->sigs;
    CoreSet sig;
    PredSource src = PredSource::history;
    if (sigs.size() == 1) {
        // d = 1: the last (and only) signature.
        sig = sigs[0];
    } else if (cfg_.enablePatterns && entry->stride >= 2 &&
               entry->stride <= sigs.size()) {
        // Stride-s repetitive pattern: the next instance repeats the
        // signature from s instances ago (with the default d = 2
        // history only stride-2 is detectable, as in the paper).
        sig = sigs[entry->stride - 1];
        src = PredSource::pattern;
        ++sp_stats_.patternHits;
    } else if (entry->stride == 1) {
        // Stable: the last signature.
        sig = sigs[0];
    } else {
        // d = 2 default: the last *stable* hot set, i.e. the
        // intersection of the two most recent signatures; fall back
        // to the most recent when they share nothing.
        sig = sigs[0] & sigs[1];
        if (sig.empty())
            sig = sigs[0];
    }
    sig.reset(core);
    if (!sig.empty()) {
        e.predictor = sig;
        e.source = src;
    }
}

void
SpPredictor::onSyncPoint(CoreId core, const SyncPointInfo &info)
{
    closeEpoch(core);

    EpochState &e = epochs_[core];
    // Preceding epoch's hot set, for the lock-union extension.
    const CoreSet prev_hot =
        e.counters.hotSet(cfg_.hotThreshold, cfg_.maxHotSetSize);
    e.beginType = info.type;
    e.staticId = info.staticId;
    e.isCriticalSection = beginsCriticalSection(info.type);
    e.counters.reset();
    e.misses = 0;
    e.commMisses = 0;
    e.warmedUp = false;
    e.confidence = confidenceMax();
    ++sp_stats_.epochsStarted;

    if (e.isCriticalSection) {
        ++sp_stats_.lockEpochs;
        // Record the previous holder "just after the lock is
        // acquired" (Section 4.3) so all critical sections protected
        // by the same lock share the history.
        if (info.prevHolder != invalidCore)
            table_.storeLockHolder(info.staticId, info.prevHolder);
    }

    formPredictor(core, info, prev_hot);
}

// ---------------------------------------------------------------------
// Per-miss interface
// ---------------------------------------------------------------------

Prediction
SpPredictor::predict(const PredictionQuery &q)
{
    EpochState &e = epochs_[q.core];
    Prediction p;
    if (e.predictor.empty()) {
        // d = 0 (or empty history): after the warm-up, extract the
        // hot set from the activity recorded so far in this interval.
        if (!e.warmedUp && e.misses >= cfg_.warmupMisses) {
            CoreSet hot = e.counters.hotSet(
                cfg_.hotThreshold, cfg_.maxHotSetSize);
            hot.reset(q.core);
            if (!hot.empty()) {
                e.predictor = hot;
                e.source = PredSource::warmup;
                e.warmedUp = true;
                ++sp_stats_.warmupExtractions;
            }
        }
        if (e.predictor.empty())
            return p;
    }
    p.targets = e.predictor;
    p.source = e.source;
    return p;
}

void
SpPredictor::trainResponse(const PredictionQuery &q, const CoreSet &who)
{
    epochs_[q.core].counters.record(who);
}

void
SpPredictor::trainExternal(CoreId observer, Addr line, Addr macro_block,
                           Pc last_pc, CoreId requester, bool is_write)
{
    // SP-prediction trains only on the requester's own responses.
    (void)observer;
    (void)line;
    (void)macro_block;
    (void)last_pc;
    (void)requester;
    (void)is_write;
}

void
SpPredictor::feedback(CoreId core, const Prediction &pred,
                      bool communicating, bool sufficient)
{
    EpochState &e = epochs_[core];
    ++e.misses;
    if (communicating)
        ++e.commMisses;
    if (!pred.valid() || !communicating || !cfg_.enableRecovery)
        return;

    if (sufficient) {
        if (e.confidence < confidenceMax())
            ++e.confidence;
        return;
    }
    if (e.confidence > 0) {
        --e.confidence;
        return;
    }
    // Confidence exhausted: rebuild the predictor from the hot set of
    // the currently running interval (Section 4.4 recovery).
    CoreSet hot =
        e.counters.hotSet(cfg_.hotThreshold, cfg_.maxHotSetSize);
    hot.reset(core);
    if (!hot.empty()) {
        e.predictor = hot;
        e.source = PredSource::recovery;
    } else {
        e.predictor.clear();
        e.source = PredSource::none;
    }
    e.confidence = confidenceMax();
    ++sp_stats_.recoveries;
}

// ---------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------

std::size_t
SpPredictor::storageBits() const
{
    // SP-table entries plus the fixed per-core cost: one one-byte
    // communication counter per target core plus the core's one-byte
    // prediction-register slice. For 16 cores that is 16 + 1 = 17
    // bytes (136 bits) per core, Section 5.4's figure; the formula
    // recomputes it at any scale. Stored signatures follow the
    // machine's sharer format (full: n_cores bits; coarse / limited
    // shrink them the same way they shrink directory entries).
    const std::size_t sig_bits = cfg_.sharerEntryBits();
    const std::size_t fixed_per_core = n_cores_ * 8 + 8;
    return table_.storageBits(n_cores_, sig_bits) +
        n_cores_ * fixed_per_core;
}

std::uint64_t
SpPredictor::tableAccesses() const
{
    return table_.accesses();
}

} // namespace spp
