/**
 * @file
 * SP-table: the communication-signature history structure
 * (Sections 4.3 and 4.6).
 *
 * Distributed hardware embodiment: one slice per core indexed by the
 * static sync-point ID of the epoch, plus logically shared entries
 * for locks, tagged by the lock address and holding the sequence of
 * the last d lock holders. Each per-core entry keeps up to d
 * communication signatures (bit vectors) and the detected repetition
 * stride (1 = stable, 2 = alternating, 0 = unknown).
 */

#ifndef SPP_CORE_SP_TABLE_HH
#define SPP_CORE_SP_TABLE_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/core_set.hh"
#include "common/types.hh"

namespace spp {

/** One per-core SP-table entry: signature history of a sync-epoch. */
struct SpEntry
{
    /** Most recent first; bounded by the configured history depth. */
    std::deque<CoreSet> sigs;
    /** Detected repetition stride: 0 unknown, 1 stable, 2 stride-2. */
    unsigned stride = 0;
};

/** Shared lock entry: last d cores that held the lock. */
struct LockEntry
{
    std::deque<CoreId> holders; ///< Most recent first.
};

/**
 * The SP-table: per-core slices plus the shared lock portion.
 */
class SpTable
{
  public:
    SpTable(unsigned n_cores, unsigned history_depth)
        : depth_(history_depth), slices_(n_cores)
    {}

    /**
     * Record the signature of a just-ended epoch instance and update
     * the entry's stride detection (compare the new signature against
     * the stored history: a match at depth s means period s).
     */
    void
    storeSignature(CoreId core, std::uint64_t static_id,
                   const CoreSet &sig)
    {
        SpEntry &e = slices_[core][static_id];
        // A match at depth s means the sequence has period s; the
        // smallest matching depth wins (Section 4.4's pattern
        // detection, generalized to the configured history depth).
        e.stride = 0;
        for (unsigned s = 1; s <= e.sigs.size(); ++s) {
            if (sig == e.sigs[s - 1]) {
                e.stride = s;
                break;
            }
        }
        e.sigs.push_front(sig);
        while (e.sigs.size() > depth_)
            e.sigs.pop_back();
        ++accesses_;
    }

    /** Look up a per-core entry; nullptr if never seen. */
    const SpEntry *
    entry(CoreId core, std::uint64_t static_id) const
    {
        auto it = slices_[core].find(static_id);
        ++accesses_;
        return it == slices_[core].end() ? nullptr : &it->second;
    }

    /** Record @p holder as the latest holder of @p lock_addr. */
    void
    storeLockHolder(std::uint64_t lock_addr, CoreId holder)
    {
        LockEntry &e = lock_entries_[lock_addr];
        e.holders.push_front(holder);
        while (e.holders.size() > depth_)
            e.holders.pop_back();
        ++accesses_;
    }

    /** Union of the last d holders of @p lock_addr. */
    CoreSet
    lockHolders(std::uint64_t lock_addr) const
    {
        CoreSet s;
        auto it = lock_entries_.find(lock_addr);
        ++accesses_;
        if (it == lock_entries_.end())
            return s;
        for (CoreId h : it->second.holders)
            if (h != invalidCore)
                s.set(h);
        return s;
    }

    unsigned depth() const { return depth_; }

    /** Entries across all slices plus the shared lock portion. */
    std::size_t
    entryCount() const
    {
        std::size_t n = lock_entries_.size();
        for (const auto &slice : slices_)
            n += slice.size();
        return n;
    }

    /**
     * Modelled storage cost in bits (Section 4.6): per entry a 32-bit
     * tag, d signatures, a 2-bit stride and a shared bit; lock
     * entries hold d log2-sized holder IDs. A signature is n_cores
     * bits by default (the full bit-vector machine); @p sig_bits
     * overrides its width when the machine stores destination sets in
     * a scalable sharer format (coarse / limited, home_directory.hh).
     */
    std::size_t storageBits(unsigned n_cores,
                            std::size_t sig_bits = 0) const;

    std::uint64_t accesses() const { return accesses_; }

  private:
    unsigned depth_;
    std::vector<std::unordered_map<std::uint64_t, SpEntry>> slices_;
    std::unordered_map<std::uint64_t, LockEntry> lock_entries_;
    mutable std::uint64_t accesses_ = 0;
};

} // namespace spp

#endif // SPP_CORE_SP_TABLE_HH
