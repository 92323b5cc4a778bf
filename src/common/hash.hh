/**
 * @file
 * Incremental state hashing for the model checker.
 *
 * StateHasher folds a stream of 64-bit words into one digest. Two
 * folding modes cover the two container shapes the simulator stores
 * state in:
 *
 *  - mix(): order-sensitive. Use for sequences whose order is part of
 *    the state (FIFO wait queues, per-core arrays walked in index
 *    order, script cursors).
 *  - mixUnordered(): order-insensitive (commutative sum of finalized
 *    element digests). Use for hash-map contents, whose iteration
 *    order depends on insertion history and must not leak into the
 *    digest. Fold each *element* into its own StateHasher first and
 *    feed the finished value here, so element fields stay
 *    order-sensitive inside an order-free collection.
 *
 * The digest is a deterministic function of the folded words only —
 * no pointers, no iteration-order artifacts — so equal logical states
 * reached along different execution paths hash equal, which is what
 * the model checker's visited-state pruning relies on.
 */

#ifndef SPP_COMMON_HASH_HH
#define SPP_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace spp {

/**
 * FNV-1a over a byte range: the content hash used for config
 * identity (configHash), run manifests, result-store keys and the
 * `.spptrace` checksum. Stable across hosts and builds by
 * construction.
 */
inline std::uint64_t
fnv1a64(const unsigned char *data, std::size_t n,
        std::uint64_t h = 14695981039346656037ull)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

inline std::uint64_t
fnv1a64(std::string_view s, std::uint64_t h = 14695981039346656037ull)
{
    return fnv1a64(
        reinterpret_cast<const unsigned char *>(s.data()), s.size(),
        h);
}

/**
 * splitmix64 finalizer: a bijective 64-bit mixer. StateHasher folds
 * words with it, and the open-addressing tables (PooledMap,
 * HomeDirectory) pick buckets with it: line addresses and transaction
 * ids are highly regular, so buckets need real mixing.
 */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e37'79b9'7f4a'7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebULL;
    return x ^ (x >> 31);
}

/** Accumulates a 64-bit digest of a stream of words. */
class StateHasher
{
  public:
    /** Fold @p v order-sensitively. */
    void
    mix(std::uint64_t v)
    {
        ordered_ = splitmix64(ordered_ ^ v);
    }

    /** Fold @p v order-insensitively (commutative). */
    void
    mixUnordered(std::uint64_t v)
    {
        unordered_ += splitmix64(v);
    }

    /** The digest of everything folded so far. */
    std::uint64_t
    value() const
    {
        return splitmix64(ordered_ ^
                          (unordered_ * 0x2545'f491'4f6c'dd1dULL));
    }

  private:
    std::uint64_t ordered_ = 0x6a09'e667'f3bc'c908ULL;
    std::uint64_t unordered_ = 0;
};

} // namespace spp

#endif // SPP_COMMON_HASH_HH
