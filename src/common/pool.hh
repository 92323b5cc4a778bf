/**
 * @file
 * Freelist pools for the coherence hot path.
 *
 * Pool<T> hands out objects from chunked slabs with a freelist:
 * after warm-up, acquire/release touch no allocator. Slots have
 * stable addresses for the pool's lifetime (chunks are never moved
 * or freed), so protocol code can hold a T* across arbitrary
 * intervening acquires — the property the message pool relies on
 * (a delivery closure carries its Msg slot through the mesh) and
 * PooledMap relies on (rehash moves only the index, never values).
 *
 * PooledMap<V> is an open-addressing map from uint64 keys (line
 * addresses, transaction ids) to pool-backed values: the steady-state
 * replacement for the unordered_map node churn of per-miss
 * transaction tables. Erase uses backward-shift deletion, so there
 * are no tombstones and lookup cost stays bounded by load factor.
 */

#ifndef SPP_COMMON_POOL_HH
#define SPP_COMMON_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"

namespace spp {

/** Allocation/reuse counters of one pool. */
struct PoolStats
{
    std::uint64_t acquires = 0; ///< Total acquire() calls.
    std::uint64_t reuses = 0;   ///< Served from the freelist.
    std::size_t allocated = 0;  ///< Slots ever carved from slabs.
    std::size_t live = 0;       ///< Currently acquired.
    std::size_t peak = 0;       ///< High-water mark of live.

    /** Fold another pool's counters in (summed pool families). */
    PoolStats &
    operator+=(const PoolStats &o)
    {
        acquires += o.acquires;
        reuses += o.reuses;
        allocated += o.allocated;
        live += o.live;
        peak += o.peak;
        return *this;
    }
};

template <typename T>
class Pool
{
  public:
    /** Acquire a slot in default-constructed state. */
    T *
    acquire()
    {
        ++stats_.acquires;
        if (++stats_.live > stats_.peak)
            stats_.peak = stats_.live;
        if (!free_.empty()) {
            ++stats_.reuses;
            T *p = free_.back();
            free_.pop_back();
            return p;
        }
        if (next_in_chunk_ == chunkSlots) {
            chunks_.push_back(std::make_unique<T[]>(chunkSlots));
            next_in_chunk_ = 0;
        }
        ++stats_.allocated;
        return &chunks_.back()[next_in_chunk_++];
    }

    /** Return @p p to the freelist, resetting it to default state
     * (via T::poolReset() when provided, so containers inside T can
     * keep their capacity). */
    void
    release(T *p)
    {
        SPP_ASSERT(stats_.live > 0, "pool release without acquire");
        --stats_.live;
        if constexpr (requires(T &t) { t.poolReset(); })
            p->poolReset();
        else
            *p = T{};
        free_.push_back(p);
    }

    const PoolStats &stats() const { return stats_; }

  private:
    static constexpr std::size_t chunkSlots = 64;

    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<T *> free_;
    std::size_t next_in_chunk_ = chunkSlots;
    PoolStats stats_;
};

/**
 * Open-addressing map uint64 -> V with pool-backed values.
 *
 * Values live in a Pool<V> slab, so V* stays valid across inserts,
 * erases and rehashes of *other* keys — matching unordered_map's
 * pointer-stability guarantee that the protocol engines depend on.
 * Iteration order is unspecified but deterministic for a given
 * insert/erase history (no randomized hashing).
 */
template <typename V>
class PooledMap
{
  public:
    /** @return the value mapped to @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        if (size_ == 0)
            return nullptr;
        const std::size_t mask = buckets_.size() - 1;
        for (std::size_t i = splitmix64(key) & mask;;
             i = (i + 1) & mask) {
            if (buckets_[i].val == nullptr)
                return nullptr;
            if (buckets_[i].key == key)
                return buckets_[i].val;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<PooledMap *>(this)->find(key);
    }

    bool contains(std::uint64_t key) const
    {
        return find(key) != nullptr;
    }

    /**
     * Map @p key (which must not be present) to a freshly reset
     * value slot.
     */
    V &
    insert(std::uint64_t key)
    {
        SPP_ASSERT(find(key) == nullptr,
                   "duplicate PooledMap key {}", key);
        if ((size_ + 1) * 4 > buckets_.size() * 3)
            grow();
        V *slot = pool_.acquire();
        place(Bucket{key, slot});
        ++size_;
        return *slot;
    }

    /** The value for @p key, inserting a fresh one if absent. */
    V &
    findOrInsert(std::uint64_t key)
    {
        if (V *v = find(key))
            return *v;
        return insert(key);
    }

    /** @return true if @p key was present (and is now removed). */
    bool
    erase(std::uint64_t key)
    {
        if (size_ == 0)
            return false;
        const std::size_t mask = buckets_.size() - 1;
        std::size_t i = splitmix64(key) & mask;
        while (true) {
            if (buckets_[i].val == nullptr)
                return false;
            if (buckets_[i].key == key)
                break;
            i = (i + 1) & mask;
        }
        pool_.release(buckets_[i].val);
        // Backward-shift deletion: pull displaced entries into the
        // hole so probe chains never cross an empty slot.
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask;
             buckets_[j].val != nullptr; j = (j + 1) & mask) {
            const std::size_t ideal = splitmix64(buckets_[j].key) & mask;
            if (((j - ideal) & mask) >= ((j - hole) & mask)) {
                buckets_[hole] = buckets_[j];
                hole = j;
            }
        }
        buckets_[hole] = Bucket{};
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Visit every (key, value) pair; insertion-history order is not
     * guaranteed, but the order is deterministic. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Bucket &b : buckets_)
            if (b.val != nullptr)
                fn(b.key, *b.val);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Bucket &b : buckets_)
            if (b.val != nullptr)
                fn(b.key, *b.val);
    }

    const PoolStats &stats() const { return pool_.stats(); }

  private:
    struct Bucket
    {
        std::uint64_t key = 0;
        V *val = nullptr;
    };

    void
    place(Bucket b)
    {
        const std::size_t mask = buckets_.size() - 1;
        std::size_t i = splitmix64(b.key) & mask;
        while (buckets_[i].val != nullptr)
            i = (i + 1) & mask;
        buckets_[i] = b;
    }

    void
    grow()
    {
        std::vector<Bucket> old = std::move(buckets_);
        buckets_.assign(old.empty() ? 16 : old.size() * 2,
                        Bucket{});
        for (const Bucket &b : old)
            if (b.val != nullptr)
                place(b);
    }

    std::vector<Bucket> buckets_;
    std::size_t size_ = 0;
    Pool<V> pool_;
};

} // namespace spp

#endif // SPP_COMMON_POOL_HH
