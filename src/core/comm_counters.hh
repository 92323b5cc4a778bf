/**
 * @file
 * Per-core communication counters and hot-set extraction
 * (Sections 3.3 and 4.2).
 *
 * One 8-bit saturating counter per destination records how much of
 * the current sync-epoch's communication went to that core. At the
 * end of the epoch (or mid-epoch for warm-up/recovery) the hot
 * communication set is extracted: every core that drew at least
 * hotThreshold (default 10%) of the recorded volume.
 */

#ifndef SPP_CORE_COMM_COUNTERS_HH
#define SPP_CORE_COMM_COUNTERS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/core_set.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace spp {

/** Bank of saturating communication counters, one per core of the
 * simulated machine (sized by the configured core count, not the
 * compile-time maxCores capacity). */
class CommCounters
{
  public:
    static constexpr std::uint8_t saturation = 255;

    explicit CommCounters(unsigned n_cores = maxCores)
        : counts_(n_cores, 0)
    {}

    /** Record one communication event towards each core in @p who;
     * every member must be a core of this bank. */
    void
    record(const CoreSet &who)
    {
        for (CoreId c : who) {
            SPP_ASSERT(c < counts_.size(),
                       "core {} recorded into a {}-core bank", c,
                       counts_.size());
            if (counts_[c] < saturation)
                ++counts_[c];
        }
    }

    /** Total recorded volume (sum of all counters). */
    unsigned
    total() const
    {
        unsigned sum = 0;
        for (auto v : counts_)
            sum += v;
        return sum;
    }

    /**
     * Extract the hot communication set: cores with at least
     * @p threshold fraction of the total volume. Empty if nothing
     * was recorded. A non-zero @p max_size keeps only the hottest
     * @p max_size cores (Section 5.2's bounded-bandwidth policy).
     */
    CoreSet
    hotSet(double threshold, unsigned max_size = 0) const
    {
        const unsigned sum = total();
        CoreSet hot;
        if (sum == 0)
            return hot;
        const double cut = threshold * sum;
        for (unsigned c = 0; c < counts_.size(); ++c)
            if (counts_[c] >= cut && counts_[c] > 0)
                hot.set(static_cast<CoreId>(c));
        while (max_size != 0 && hot.count() > max_size) {
            // Drop the coldest member until the cap holds.
            CoreId coldest = hot.first();
            for (CoreId c : hot)
                if (counts_[c] < counts_[coldest])
                    coldest = c;
            hot.reset(coldest);
        }
        return hot;
    }

    std::uint8_t count(CoreId c) const { return counts_[c]; }

    /** Clear the per-epoch counters (epoch boundary). */
    void reset() { std::fill(counts_.begin(), counts_.end(), 0); }

  private:
    std::vector<std::uint8_t> counts_;
};

} // namespace spp

#endif // SPP_CORE_COMM_COUNTERS_HH
