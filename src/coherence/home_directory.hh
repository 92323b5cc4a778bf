/**
 * @file
 * The home directory: each line's sharer set and owner.
 *
 * One HomeDirectory serves a whole machine: the directory protocol's
 * home slices, or multicast snooping's memory-side verification
 * directory. It holds the sharer format once (format, core count n,
 * K, P, and whether MESIF's F state exists) and per line only the
 * sharer bits, an overflow flag and the exact owner.
 *
 * A full-map bit vector costs n bits per entry and stops being
 * reasonable somewhere past a few dozen cores. The classic scalable
 * alternatives trade exactness for space, and stay correct by only
 * ever over-approximating the sharer set (invalidations sent to
 * non-sharers are answered with hadCopy = false acks, so SWMR is
 * preserved):
 *
 *  - full:    exact bit vector, n bits/entry.
 *  - coarse:  one bit per group of K consecutive cores
 *             (Gupta et al.'s coarse vector); ceil(n/K) bits/entry.
 *             Invalidations multicast to the whole group. Per-core
 *             removal is impossible (other group members may still
 *             share), so writebacks leave the group bit set — the
 *             same kind of staleness silent Shared evictions already
 *             leave in a full map.
 *  - limited: P exact core pointers plus an overflow flag (Dir-P-B).
 *             Once more than P cores share, the entry degrades to
 *             broadcast until the next write makes it exact again.
 *             P*ceil(log2 n)+1 bits/entry.
 *
 * Protocols act on the conservative superset sharers() and others()
 * return, so inexact formats cost extra invalidations, never
 * correctness. Engines change entries only through the three MESIF
 * transitions and writeback(), so the F-state ownership rule lives
 * here alone.
 *
 * Storage is one flat open-addressing table (linear probing, buckets
 * picked by splitmix64) that grows by doubling and never erases: a
 * line's entry lives from its first miss to the end of the run. Each
 * 16-byte slot holds the line, the owner, the overflow flag and, for
 * limited, the pointers in use; a parallel array holds each slot's
 * sharer words. Full keeps ceil(n/64) words of bits and coarse
 * ceil(ceil(n/K)/64); limited keeps min(P, n) 16-bit core ids, four
 * to a word, so its host cost follows Config::sharerEntryBits()
 * rounded to 16-bit lanes rather than n. A 16-core entry costs 24
 * bytes in every format, and a limited one with P <= 4 costs 24 bytes
 * at any core count.
 */

#ifndef SPP_COHERENCE_HOME_DIRECTORY_HH
#define SPP_COHERENCE_HOME_DIRECTORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/core_set.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "mem/mesif.hh"

namespace spp {

class HomeDirectory
{
  public:
    /** The line of an empty slot; line addresses never reach it. */
    static constexpr Addr noLine = ~Addr{0};

    /** One line's directory state, less its sharer words (full: the
     * sharers; coarse: group bits; limited: pointers), which the
     * directory keeps beside it. */
    struct Entry
    {
        Addr line = noLine;         ///< Set by at(); read-only.
        CoreId owner = invalidCore; ///< E/M/F holder, if any.
        bool overflow = false;      ///< limited: more than P sharers.
        /** limited: pointers held, at most P (configValidate bounds P
         * to 16 bits); read-only. */
        std::uint16_t pointers = 0;
    };
    static_assert(sizeof(Entry) == 16, "a slot is 16 bytes");

    explicit HomeDirectory(const Config &cfg);

    /**
     * The entry of @p line, created empty on first use. The reference
     * stays valid until the next at() that inserts a line: growth
     * moves every entry.
     */
    Entry &
    at(Addr line)
    {
        std::size_t i = slotOf(line);
        if (slots_[i].line != line) {
            if ((size_ + 1) * 4 > slots_.size() * 3) {
                grow();
                i = slotOf(line);
            }
            slots_[i].line = line;
            ++size_;
        }
        return slots_[i];
    }

    /** Conservative superset of @p e's sharers, clipped to n. */
    CoreSet sharers(const Entry &e) const;

    /** sharers() minus @p c: the peers a request by @p c must
     * contact. */
    CoreSet
    others(const Entry &e, CoreId c) const
    {
        CoreSet s = sharers(e);
        s.reset(c);
        return s;
    }

    /** May @p c hold a copy? (Never false for an actual sharer.) */
    bool mayShare(const Entry &e, CoreId c) const;

    // --- MESIF transitions ------------------------------------------

    /** A read by @p reader served by the owner's forwarded copy: the
     * reader becomes the F holder (plain MESI keeps no clean owner). */
    void readFromOwner(Entry &e, CoreId reader);

    /**
     * A read by @p reader served by memory. @return the fill state:
     * Exclusive when no other core may share (the reader then owns
     * the line), else the clean-shared fill (the reader owns it only
     * under MESIF).
     */
    Mesif readFromMemory(Entry &e, CoreId reader);

    /** A write by @p writer: the entry becomes exact again, with the
     * writer as its sole sharer and owner. */
    void write(Entry &e, CoreId writer);

    /** @p core wrote @p line back: forget it where the format allows
     * and clear its ownership. */
    void writeback(Addr line, CoreId core);

    // --- Model checking and verification ----------------------------

    /**
     * Fold every entry into @p h, order-insensitively. Entries hash by
     * behavior: sharers() plus the overflow flag is injective up to
     * behavioral equivalence in every format (an overflowed limited
     * entry acts the same whatever its retained pointers).
     */
    void hashInto(StateHasher &h) const;

    /**
     * Panic unless the entries agree with the caches: an owner holds
     * a forwardable copy, every holder is a recorded sharer (the
     * reverse need not hold: silent Shared evictions leave stale
     * bits), and every forwardable holder is the owner. @p held(c,
     * line) returns the state of core c's copy, Mesif::invalid when it
     * has none. Call only when the memory system is drained.
     */
    template <class Held>
    void check(const Held &held) const;

  private:
    using Word = CoreSet::Word;

    CoreId group(CoreId c) const { return static_cast<CoreId>(c / k_); }

    /** The slot holding @p line, else the empty slot it would take. */
    std::size_t
    slotOf(Addr line) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = splitmix64(line) & mask;
        while (slots_[i].line != line && slots_[i].line != noLine)
            i = (i + 1) & mask;
        return i;
    }

    /** The sharer words of @p e, which must be one of slots_. */
    Word *
    bitsOf(const Entry &e)
    {
        return bits_.data() +
            static_cast<std::size_t>(&e - slots_.data()) * words_;
    }
    const Word *
    bitsOf(const Entry &e) const
    {
        return const_cast<HomeDirectory *>(this)->bitsOf(e);
    }

    bool testBit(const Entry &e, CoreId bit) const;
    void setBit(Entry &e, CoreId bit);
    void resetBit(Entry &e, CoreId bit);

    /** Limited format: pointer @p i of @p e, and whether any pointer
     * in use names @p c. */
    CoreId pointer(const Entry &e, unsigned i) const;
    void setPointer(Entry &e, unsigned i, CoreId c);
    bool holdsPointer(const Entry &e, CoreId c) const;

    /** Double the table and re-place every entry. */
    void grow();

    SharerFormat format_;
    unsigned n_cores_;
    unsigned k_; ///< Cores per coarse bit.
    unsigned p_; ///< Limited-format pointers.
    bool f_state_;
    unsigned words_; ///< Sharer words per entry.
    std::size_t size_ = 0; ///< Lines with an entry.
    /** Power-of-two table; lines are never removed. */
    std::vector<Entry> slots_;
    /** words_ sharer words per slot, in slot order. */
    std::vector<Word> bits_;
};

template <class Held>
void
HomeDirectory::check(const Held &held) const
{
    for (const Entry &e : slots_) {
        if (e.line == noLine)
            continue;
        const Addr line = e.line;
        if (e.owner != invalidCore) {
            SPP_ASSERT(mayShare(e, e.owner),
                       "owner {} of line {} not in sharer set", e.owner,
                       line);
            const Mesif s = held(e.owner, line);
            SPP_ASSERT(canForward(s), "directory owner {} of line {} "
                       "holds {}", e.owner, line,
                       isValid(s) ? toString(s) : "nothing");
        }
        for (CoreId c = 0; c < n_cores_; ++c) {
            const Mesif s = held(c, line);
            SPP_ASSERT(!isValid(s) || mayShare(e, c),
                       "core {} holds line {} unknown to directory", c,
                       line);
            SPP_ASSERT(!canForward(s) || e.owner == c,
                       "core {} holds {} of line {} but owner is {}", c,
                       toString(s), line, e.owner);
        }
    }
}

} // namespace spp

#endif // SPP_COHERENCE_HOME_DIRECTORY_HH
