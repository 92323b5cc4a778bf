/**
 * @file
 * Generic set-associative cache tag/state array with LRU replacement.
 *
 * The array stores coherence state only (the simulator carries data
 * values in a separate logical memory for checking); it is used for
 * both the L1 filter cache and the private L2.
 *
 * Storage is sparse: a way exists only once allocate() fills it, so
 * host memory and construction time follow the lines a run holds
 * rather than the modelled capacity.
 */

#ifndef SPP_MEM_CACHE_ARRAY_HH
#define SPP_MEM_CACHE_ARRAY_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/mesif.hh"

namespace spp {

/** One cache line's bookkeeping. */
struct CacheLine
{
    /** next of a set's last way; CacheArray's head of an empty set. */
    static constexpr std::uint32_t endOfSet = ~std::uint32_t{0};
    Addr tag = 0;               ///< Full line address (not truncated).
    Mesif state = Mesif::invalid;
    /** CacheArray's next way in this line's set. */
    std::uint32_t next = endOfSet;
    std::uint64_t lru = 0;      ///< Higher = more recently used.
    Pc lastPc = 0;              ///< Instruction that last missed here
                                ///< (INST predictor training).
    std::uint64_t version = 0;  ///< Logical data version (checker).
};
static_assert(sizeof(CacheLine) == 40, "next sits in state's padding");

/** Statistics for one cache array. */
struct CacheStats
{
    Counter lookups;
    Counter hits;
    Counter misses;
    Counter evictions;
    Counter dirtyEvictions;
};

/**
 * Set-associative array of CacheLine records indexed by line address.
 *
 * Each set chains up to assoc ways, taken one at a time as fills need
 * them from a slab of fixed 64-line chunks that never move, so a
 * CacheLine pointer stays valid for the array's lifetime. Probes of
 * an empty set miss without allocating.
 */
class CacheArray
{
  public:
    /**
     * @param size_bytes Total capacity.
     * @param assoc Ways per set.
     * @param line_bytes Line size (power of two).
     */
    CacheArray(unsigned size_bytes, unsigned assoc, unsigned line_bytes);

    /**
     * Look up @p line_addr (must be line-aligned). Touches LRU on hit.
     * @return pointer to the line, or nullptr on miss.
     */
    CacheLine *lookup(Addr line_addr);

    /** Look up without updating LRU or stats (for checkers/peeks). */
    const CacheLine *peek(Addr line_addr) const;

    /** Mutable lookup without LRU/stats updates (protocol actions). */
    CacheLine *
    find(Addr line_addr)
    {
        return const_cast<CacheLine *>(
            static_cast<const CacheArray *>(this)->peek(line_addr));
    }

    /**
     * Allocate a way for @p line_addr, evicting the LRU victim if the
     * set is full. The line is returned in Mesif::invalid with the tag
     * set; the caller installs the state.
     *
     * @param[out] victim If an eviction occurred, receives the evicted
     *             line's previous contents (tag + state); otherwise
     *             victim.state == Mesif::invalid.
     * @return the allocated line.
     */
    CacheLine *allocate(Addr line_addr, CacheLine &victim);

    /** Invalidate @p line_addr if present. @return previous state. */
    Mesif invalidate(Addr line_addr);

    /** Number of valid lines currently held (O(size); for tests). */
    unsigned validCount() const;

    unsigned lineBytes() const { return line_bytes_; }

    const CacheStats &stats() const { return stats_; }

    /**
     * Call @p fn(line) for every valid line in ascending set order,
     * then way order, whatever order the sets were first allocated in
     * (MemSys::hashState folds this enumeration).
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::uint32_t head : sets_)
            for (std::uint32_t w = head; w != CacheLine::endOfSet;
                 w = way(w).next)
                if (isValid(way(w).state))
                    fn(way(w));
    }

  private:
    static constexpr unsigned chunkLines = 64; ///< Lines per slab chunk.
    std::size_t setOf(Addr line_addr) const;

    CacheLine &
    way(std::uint32_t w) const
    {
        return chunks_[w / chunkLines][w % chunkLines];
    }

    unsigned n_sets_;
    unsigned assoc_;
    unsigned line_bytes_;
    unsigned line_shift_;
    std::uint64_t next_lru_ = 1;
    /** Each set's first way; CacheLine::endOfSet while empty. */
    std::vector<std::uint32_t> sets_;
    /** The ways, numbered in the order allocate() took them. */
    std::vector<std::unique_ptr<CacheLine[]>> chunks_;
    std::uint32_t ways_taken_ = 0;
    CacheStats stats_;
};

} // namespace spp

#endif // SPP_MEM_CACHE_ARRAY_HH
