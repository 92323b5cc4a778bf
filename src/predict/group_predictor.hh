/**
 * @file
 * Martin-style "group" destination-set predictors (Section 5.4,
 * after [36]): ADDR (macroblock-indexed), INST (PC-indexed) and UNI
 * (unindexed).
 *
 * Each entry keeps one 2-bit saturating train-up counter per core and
 * a rollover counter implementing periodic train-down, so inactive
 * destinations decay out of the predicted group. The predicted set is
 * every core whose counter is at or above the threshold. Training
 * uses both the requester's own miss responses and external coherence
 * requests observed at a cache (associated with the data address or
 * with the static instruction that last touched the block).
 *
 * Tables can be capacity-limited (predictorEntries > 0): a
 * fully-associative LRU cache of entries models the 4 KB
 * configuration of Figure 13.
 */

#ifndef SPP_PREDICT_GROUP_PREDICTOR_HH
#define SPP_PREDICT_GROUP_PREDICTOR_HH

#include <array>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "common/core_set.hh"
#include "common/logging.hh"
#include "predict/predictor.hh"

namespace spp {

/** One group-predictor entry: 2-bit counters + train-down rollover.
 * Counter storage is sized by the configured core count, not the
 * compile-time maxCores capacity, so entries stay proportional to the
 * machine actually simulated. */
class GroupEntry
{
  public:
    static constexpr std::uint8_t counterMax = 3;

    explicit GroupEntry(unsigned n_cores) : counters_(n_cores, 0) {}

    /** Train up the counters of @p who, every member a core of this
     * entry; decay all counters once per @p traindown_period
     * trainings. */
    void
    train(const CoreSet &who, unsigned traindown_period)
    {
        for (CoreId c : who) {
            SPP_ASSERT(c < counters_.size(),
                       "core {} trained into a {}-core entry", c,
                       counters_.size());
            if (counters_[c] < counterMax)
                ++counters_[c];
        }
        if (++rollover_ >= traindown_period) {
            rollover_ = 0;
            for (auto &v : counters_)
                if (v > 0)
                    --v;
        }
    }

    /** Cores whose counter meets @p threshold. */
    CoreSet
    predict(unsigned threshold) const
    {
        CoreSet s;
        for (unsigned c = 0; c < counters_.size(); ++c)
            if (counters_[c] >= threshold)
                s.set(static_cast<CoreId>(c));
        return s;
    }

    std::uint8_t counter(CoreId c) const { return counters_[c]; }

  private:
    std::vector<std::uint8_t> counters_;
    std::uint8_t rollover_ = 0;
};

/**
 * A per-core table of GroupEntry records, optionally capacity-limited
 * with LRU replacement (capacity = 0 means unbounded).
 */
class GroupTable
{
  public:
    GroupTable(std::size_t capacity, unsigned n_cores)
        : capacity_(capacity), n_cores_(n_cores)
    {}

    /** Find or allocate the entry for @p key (touches LRU). */
    GroupEntry &
    entry(std::uint64_t key)
    {
        ++accesses_;
        auto it = map_.find(key);
        if (it != map_.end()) {
            if (capacity_ != 0)
                lru_.splice(lru_.begin(), lru_, it->second.lruPos);
            return it->second.entry;
        }
        if (capacity_ != 0 && map_.size() >= capacity_) {
            const std::uint64_t victim = lru_.back();
            lru_.pop_back();
            map_.erase(victim);
        }
        Slot slot{GroupEntry(n_cores_), {}};
        if (capacity_ != 0) {
            lru_.push_front(key);
            slot.lruPos = lru_.begin();
        }
        return map_.emplace(key, std::move(slot)).first->second.entry;
    }

    /** Find without allocating; nullptr on miss. */
    const GroupEntry *
    peek(std::uint64_t key) const
    {
        ++accesses_;
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : &it->second.entry;
    }

    std::size_t size() const { return map_.size(); }
    std::uint64_t accesses() const { return accesses_; }

  private:
    struct Slot
    {
        GroupEntry entry;
        std::list<std::uint64_t>::iterator lruPos{};
    };

    std::size_t capacity_;
    unsigned n_cores_;
    std::unordered_map<std::uint64_t, Slot> map_;
    std::list<std::uint64_t> lru_;
    mutable std::uint64_t accesses_ = 0;
};

/** How a group predictor indexes its table. */
enum class GroupIndex
{
    macroBlock, ///< ADDR prediction.
    instruction,///< INST prediction.
    none,       ///< UNI prediction (single entry).
};

/**
 * The ADDR / INST / UNI predictor family.
 */
class GroupPredictor : public DestinationPredictor
{
  public:
    GroupPredictor(const Config &cfg, unsigned n_cores,
                   GroupIndex index);

    Prediction predict(const PredictionQuery &q) override;
    void trainResponse(const PredictionQuery &q,
                       const CoreSet &who) override;
    void trainExternal(CoreId observer, Addr line, Addr macro_block,
                       Pc last_pc, CoreId requester,
                       bool is_write) override;
    void feedback(CoreId core, const Prediction &pred,
                  bool communicating, bool sufficient) override;
    std::size_t storageBits() const override;
    std::uint64_t tableAccesses() const override;

    GroupIndex index() const { return index_; }

  private:
    std::uint64_t keyOf(Addr macro_block, Pc pc) const;

    const Config &cfg_;
    unsigned n_cores_;
    GroupIndex index_;
    std::vector<GroupTable> tables_; ///< One per core.
};

} // namespace spp

#endif // SPP_PREDICT_GROUP_PREDICTOR_HH
