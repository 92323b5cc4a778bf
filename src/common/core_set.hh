/**
 * @file
 * CoreSet: a bit vector over core IDs, sized to the cores it holds.
 *
 * Communication signatures, predicted destination sets and directory
 * sharer vectors are all CoreSets. The capacity follows SPP_MAX_CORES
 * (default 1024, see common/types.hh), so the simulated machine can
 * scale well past the paper's 16-core design point while CoreSet
 * stays a plain value type with no heap and ascending-core-ID
 * iteration.
 *
 * A set records how many 64-bit words are in use: one past the word
 * of the highest core ever added (clear() and assignment start over).
 * Construction, copies and every operation touch only those words;
 * the words past them hold whatever the storage held before and are
 * never read. A set over a 16-core machine therefore costs one word
 * of work, not SPP_MAX_CORES / 64. A word in use may be zero, so two
 * equal sets can use different word counts; equality and every other
 * operation read a missing word as zero.
 */

#ifndef SPP_COMMON_CORE_SET_HH
#define SPP_COMMON_CORE_SET_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "common/types.hh"

namespace spp {

/**
 * A set of core IDs stored as a multi-word bit mask. Value type; a
 * copy costs the words in use.
 */
class CoreSet
{
  public:
    using Word = std::uint64_t;
    static constexpr unsigned wordBits = 64;
    static constexpr unsigned nWords =
        (maxCores + wordBits - 1) / wordBits;

    /** The empty set. User-provided so that value-initialization
     * does not zero the unused words. */
    constexpr CoreSet() noexcept {}

    constexpr CoreSet(const CoreSet &o) noexcept { copyFrom(o); }

    constexpr CoreSet &
    operator=(const CoreSet &o) noexcept
    {
        copyFrom(o);
        return *this;
    }

    /** Construct from an explicit single-word mask (cores 0..63). */
    static constexpr CoreSet
    fromMask(Word mask)
    {
        CoreSet s;
        s.used_ = 1;
        s.w_[0] = maxCores >= wordBits
            ? mask
            : mask & ((Word{1} << maxCores) - 1);
        return s;
    }

    /** The set held in @p n words at @p words (n <= nWords). */
    static constexpr CoreSet
    fromWords(const Word *words, unsigned n)
    {
        assert(n <= nWords);
        CoreSet s;
        s.used_ = n;
        for (unsigned w = 0; w < n; ++w)
            s.w_[w] = words[w];
        return s;
    }

    /** Construct a set holding exactly one core. */
    static constexpr CoreSet
    single(CoreId core)
    {
        CoreSet s;
        s.set(core);
        return s;
    }

    /** Construct the full set {0, ..., n_cores - 1}. */
    static constexpr CoreSet
    all(unsigned n_cores)
    {
        assert(n_cores <= maxCores);
        CoreSet s;
        const unsigned full = n_cores / wordBits;
        for (unsigned w = 0; w < full; ++w)
            s.w_[w] = ~Word{0};
        s.used_ = full;
        // A shift by a full word width is UB, hence the split above:
        // only the genuinely partial trailing word is shifted.
        const unsigned rem = n_cores % wordBits;
        if (rem != 0)
            s.w_[s.used_++] = (Word{1} << rem) - 1;
        return s;
    }

    constexpr CoreSet(std::initializer_list<CoreId> cores)
    {
        for (CoreId c : cores)
            set(c);
    }

    constexpr void
    set(CoreId core)
    {
        assert(core < maxCores);
        const unsigned w = core / wordBits;
        while (used_ <= w)
            w_[used_++] = 0;
        w_[w] |= bit(core);
    }

    constexpr void
    reset(CoreId core)
    {
        assert(core < maxCores);
        const unsigned w = core / wordBits;
        if (w < used_)
            w_[w] &= ~bit(core);
    }

    constexpr bool
    test(CoreId core) const
    {
        assert(core < maxCores);
        const unsigned w = core / wordBits;
        return w < used_ && (w_[w] & bit(core)) != 0;
    }

    constexpr void clear() { used_ = 0; }

    constexpr bool
    empty() const
    {
        for (unsigned w = 0; w < used_; ++w)
            if (w_[w] != 0)
                return false;
        return true;
    }

    /** Number of cores in the set. */
    constexpr unsigned
    count() const
    {
        unsigned n = 0;
        for (unsigned w = 0; w < used_; ++w)
            n += static_cast<unsigned>(std::popcount(w_[w]));
        return n;
    }

    /**
     * The historical single-word view; every member must fit in 64
     * bits. Prefer toHex()/fromHex() for serialization — this exists
     * for small-system call sites and tests.
     */
    constexpr Word
    mask() const
    {
        for (unsigned w = 1; w < used_; ++w)
            assert(w_[w] == 0 && "mask() on a set with cores >= 64");
        return used_ == 0 ? 0 : w_[0];
    }

    /** Lowest-numbered member; the set must be non-empty. */
    constexpr CoreId
    first() const
    {
        for (unsigned w = 0; w < used_; ++w)
            if (w_[w] != 0)
                return static_cast<CoreId>(
                    w * wordBits + std::countr_zero(w_[w]));
        assert(!"first() on an empty CoreSet");
        return invalidCore;
    }

    /** True iff this set contains every member of @p other. */
    constexpr bool
    contains(const CoreSet &other) const
    {
        const unsigned common = std::min(used_, other.used_);
        for (unsigned w = 0; w < common; ++w)
            if (other.w_[w] & ~w_[w])
                return false;
        for (unsigned w = common; w < other.used_; ++w)
            if (other.w_[w] != 0)
                return false;
        return true;
    }

    constexpr bool
    intersects(const CoreSet &other) const
    {
        const unsigned common = std::min(used_, other.used_);
        for (unsigned w = 0; w < common; ++w)
            if (w_[w] & other.w_[w])
                return true;
        return false;
    }

    constexpr CoreSet
    operator|(const CoreSet &o) const
    {
        CoreSet r(*this);
        r |= o;
        return r;
    }

    constexpr CoreSet
    operator&(const CoreSet &o) const
    {
        CoreSet r(*this);
        r &= o;
        return r;
    }

    /** Set difference: members of this set not in @p o. */
    constexpr CoreSet
    operator-(const CoreSet &o) const
    {
        CoreSet r(*this);
        const unsigned common = std::min(used_, o.used_);
        for (unsigned w = 0; w < common; ++w)
            r.w_[w] &= ~o.w_[w];
        return r;
    }

    constexpr CoreSet &
    operator|=(const CoreSet &o)
    {
        const unsigned common = std::min(used_, o.used_);
        for (unsigned w = 0; w < common; ++w)
            w_[w] |= o.w_[w];
        for (; used_ < o.used_; ++used_)
            w_[used_] = o.w_[used_];
        return *this;
    }

    constexpr CoreSet &
    operator&=(const CoreSet &o)
    {
        used_ = std::min(used_, o.used_);
        for (unsigned w = 0; w < used_; ++w)
            w_[w] &= o.w_[w];
        return *this;
    }

    constexpr bool
    operator==(const CoreSet &o) const
    {
        const unsigned common = std::min(used_, o.used_);
        for (unsigned w = 0; w < common; ++w)
            if (w_[w] != o.w_[w])
                return false;
        // Past the shorter set, the longer one's words must be zero.
        const CoreSet &longer = used_ > o.used_ ? *this : o;
        for (unsigned w = common; w < longer.used_; ++w)
            if (longer.w_[w] != 0)
                return false;
        return true;
    }

    /**
     * Iteration support: visits member core IDs in ascending order.
     * The iterator references the set's word storage, so the set must
     * outlive the iteration (range-for over a temporary is fine: the
     * temporary's lifetime covers the loop).
     */
    class iterator
    {
      public:
        constexpr iterator(const Word *words, unsigned word,
                           unsigned end)
            : words_(words), word_(word), end_(end)
        {
            skipEmptyWords();
        }

        constexpr CoreId
        operator*() const
        {
            return static_cast<CoreId>(
                word_ * wordBits + std::countr_zero(rest_));
        }

        constexpr iterator &
        operator++()
        {
            rest_ &= rest_ - 1;
            if (rest_ == 0) {
                ++word_;
                skipEmptyWords();
            }
            return *this;
        }

        constexpr bool
        operator==(const iterator &o) const
        {
            return word_ == o.word_ && rest_ == o.rest_;
        }

      private:
        constexpr void
        skipEmptyWords()
        {
            while (word_ < end_ && words_[word_] == 0)
                ++word_;
            rest_ = word_ < end_ ? words_[word_] : 0;
        }

        const Word *words_;
        unsigned word_;
        unsigned end_;
        Word rest_ = 0;
    };

    constexpr iterator
    begin() const
    {
        return iterator(w_.data(), 0, used_);
    }

    constexpr iterator
    end() const
    {
        return iterator(w_.data(), used_, used_);
    }

    /** Render as e.g. "{0,5,12}" for logs and test failure messages. */
    std::string toString() const;

    /** Render as a 0/1 string of @p n_cores bits, LSB (core 0) first. */
    std::string toBitString(unsigned n_cores) const;

    /**
     * Compact lowercase-hex rendering of the whole mask (least
     * significant digit last, no leading zeros, "0" when empty);
     * width-independent serialization for trace files.
     */
    std::string toHex() const;

    /** Parse a toHex() rendering; fatal on malformed input. */
    static CoreSet fromHex(const std::string &hex);

  private:
    static constexpr Word
    bit(CoreId core)
    {
        return Word{1} << (core % wordBits);
    }

    constexpr void
    copyFrom(const CoreSet &o)
    {
        used_ = o.used_;
        for (unsigned w = 0; w < used_; ++w)
            w_[w] = o.w_[w];
    }

    unsigned used_ = 0; ///< Words in use; w_[used_..] are never read.
    std::array<Word, nWords> w_;
};

} // namespace spp

#endif // SPP_COMMON_CORE_SET_HH
