#include "mem/cache_array.hh"

namespace spp {

CacheArray::CacheArray(unsigned size_bytes, unsigned assoc,
                       unsigned line_bytes)
    : assoc_(assoc), line_bytes_(line_bytes),
      line_shift_(std::countr_zero(
          static_cast<unsigned long>(line_bytes)))
{
    SPP_ASSERT(std::has_single_bit(line_bytes),
               "line size must be a power of two, got {}", line_bytes);
    SPP_ASSERT(assoc > 0, "associativity must be non-zero");
    // 64-bit product: a 32-bit one wraps for assoc >= 2^32 / lineBytes.
    const std::uint64_t set_bytes = std::uint64_t{line_bytes} * assoc;
    SPP_ASSERT(size_bytes > 0 && size_bytes % set_bytes == 0,
               "cache size {} not divisible into {}-way sets",
               size_bytes, assoc);
    n_sets_ = static_cast<unsigned>(size_bytes / set_bytes);
    sets_.resize(n_sets_);
}

std::size_t
CacheArray::setOf(Addr line_addr) const
{
    const Addr line_num = line_addr >> line_shift_;
    return static_cast<std::size_t>(line_num % n_sets_);
}

CacheLine *
CacheArray::lookup(Addr line_addr)
{
    ++stats_.lookups;
    CacheLine *line = find(line_addr);
    if (!line) {
        ++stats_.misses;
        return nullptr;
    }
    line->lru = next_lru_++;
    ++stats_.hits;
    return line;
}

const CacheLine *
CacheArray::peek(Addr line_addr) const
{
    const CacheLine *ways = sets_[setOf(line_addr)].get();
    if (!ways)
        return nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        const CacheLine &line = ways[w];
        if (isValid(line.state) && line.tag == line_addr)
            return &line;
    }
    return nullptr;
}

CacheLine *
CacheArray::allocate(Addr line_addr, CacheLine &victim)
{
    victim = CacheLine{};
    auto &ways = sets_[setOf(line_addr)];
    if (!ways)
        ways = std::make_unique<CacheLine[]>(assoc_);
    CacheLine *target = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        CacheLine &line = ways[w];
        SPP_ASSERT(!isValid(line.state) || line.tag != line_addr,
                   "allocate of already-present line {}",
                   line_addr);
        if (!isValid(line.state)) {
            target = &line;
            break;
        }
        if (!target || line.lru < target->lru)
            target = &line;
    }
    if (isValid(target->state)) {
        victim = *target;
        ++stats_.evictions;
        if (isDirty(target->state))
            ++stats_.dirtyEvictions;
    }
    target->tag = line_addr;
    target->state = Mesif::invalid;
    target->lru = next_lru_++;
    return target;
}

Mesif
CacheArray::invalidate(Addr line_addr)
{
    CacheLine *line = find(line_addr);
    if (!line)
        return Mesif::invalid;
    const Mesif prev = line->state;
    line->state = Mesif::invalid;
    return prev;
}

unsigned
CacheArray::validCount() const
{
    unsigned n = 0;
    forEachValid([&n](const CacheLine &) { ++n; });
    return n;
}

} // namespace spp
