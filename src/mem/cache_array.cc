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
    sets_.assign(n_sets_, CacheLine::endOfSet);
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
    for (std::uint32_t w = sets_[setOf(line_addr)];
         w != CacheLine::endOfSet;) {
        const CacheLine &line = way(w);
        if (isValid(line.state) && line.tag == line_addr)
            return &line;
        w = line.next;
    }
    return nullptr;
}

CacheLine *
CacheArray::allocate(Addr line_addr, CacheLine &victim)
{
    victim = CacheLine{};
    // First invalid way, else a new way, else the LRU one: a set holds
    // the ways a dense array's first-invalid-else-LRU rule fills.
    std::uint32_t *link = &sets_[setOf(line_addr)];
    unsigned held = 0;
    CacheLine *target = nullptr;
    for (; *link != CacheLine::endOfSet; ++held) {
        CacheLine &line = way(*link);
        SPP_ASSERT(!isValid(line.state) || line.tag != line_addr,
                   "allocate of already-present line {}",
                   line_addr);
        if (!isValid(line.state)) {
            target = &line;
            break;
        }
        if (!target || line.lru < target->lru)
            target = &line;
        link = &line.next;
    }
    if (*link == CacheLine::endOfSet && held < assoc_) {
        if (ways_taken_ % chunkLines == 0)
            chunks_.push_back(std::make_unique<CacheLine[]>(chunkLines));
        *link = ways_taken_++;
        target = &way(*link);
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
