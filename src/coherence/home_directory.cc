#include "coherence/home_directory.hh"

#include <algorithm>
#include <utility>

namespace spp {

namespace {

/** Initial table size: a power of two, grown by doubling. */
constexpr std::size_t initialSlots = 1024;

/** A limited-format pointer is a 16-bit core id, four to a word. */
constexpr unsigned laneBits = 16;
constexpr unsigned lanesPerWord = CoreSet::wordBits / laneBits;
constexpr CoreSet::Word laneMask = (CoreSet::Word{1} << laneBits) - 1;
static_assert(maxCores <= 1u << laneBits, "core ids fit a lane");

/** Sharer words per entry: a bit per core or per coarse group, or
 * a 16-bit lane per limited pointer. An entry never holds more than
 * n distinct pointers, so P past n costs nothing. */
unsigned
sharerWords(const Config &cfg)
{
    std::size_t bits = 0;
    switch (cfg.sharerFormat) {
      case SharerFormat::full:
        bits = cfg.numCores;
        break;
      case SharerFormat::coarse:
        bits = cfg.sharerEntryBits();
        break;
      case SharerFormat::limited:
        bits = std::size_t{laneBits} *
            std::min(cfg.sharerPointers, cfg.numCores);
        break;
    }
    return static_cast<unsigned>((bits + CoreSet::wordBits - 1) /
                                 CoreSet::wordBits);
}

} // namespace

HomeDirectory::HomeDirectory(const Config &cfg)
    : format_(cfg.sharerFormat), n_cores_(cfg.numCores),
      k_(cfg.coarseCoresPerBit), p_(cfg.sharerPointers),
      f_state_(cfg.enableFState), words_(sharerWords(cfg)),
      slots_(initialSlots), bits_(initialSlots * words_)
{
}

bool
HomeDirectory::testBit(const Entry &e, CoreId bit) const
{
    return (bitsOf(e)[bit / CoreSet::wordBits] &
            (Word{1} << (bit % CoreSet::wordBits))) != 0;
}

void
HomeDirectory::setBit(Entry &e, CoreId bit)
{
    bitsOf(e)[bit / CoreSet::wordBits] |=
        Word{1} << (bit % CoreSet::wordBits);
}

void
HomeDirectory::resetBit(Entry &e, CoreId bit)
{
    bitsOf(e)[bit / CoreSet::wordBits] &=
        ~(Word{1} << (bit % CoreSet::wordBits));
}

CoreId
HomeDirectory::pointer(const Entry &e, unsigned i) const
{
    return static_cast<CoreId>(
        bitsOf(e)[i / lanesPerWord] >> (i % lanesPerWord * laneBits) &
        laneMask);
}

void
HomeDirectory::setPointer(Entry &e, unsigned i, CoreId c)
{
    Word &w = bitsOf(e)[i / lanesPerWord];
    const unsigned shift = i % lanesPerWord * laneBits;
    w = (w & ~(laneMask << shift)) | Word{c} << shift;
}

bool
HomeDirectory::holdsPointer(const Entry &e, CoreId c) const
{
    for (unsigned i = 0; i < e.pointers; ++i)
        if (pointer(e, i) == c)
            return true;
    return false;
}

CoreSet
HomeDirectory::sharers(const Entry &e) const
{
    switch (format_) {
      case SharerFormat::full:
        return CoreSet::fromWords(bitsOf(e), words_);
      case SharerFormat::coarse: {
        CoreSet s;
        for (CoreId g : CoreSet::fromWords(bitsOf(e), words_)) {
            const unsigned lo = g * k_;
            const unsigned hi = std::min(lo + k_, n_cores_);
            for (unsigned c = lo; c < hi; ++c)
                s.set(static_cast<CoreId>(c));
        }
        return s;
      }
      case SharerFormat::limited: {
        if (e.overflow)
            return CoreSet::all(n_cores_);
        CoreSet s;
        for (unsigned i = 0; i < e.pointers; ++i)
            s.set(pointer(e, i));
        return s;
      }
    }
    return {};
}

bool
HomeDirectory::mayShare(const Entry &e, CoreId c) const
{
    switch (format_) {
      case SharerFormat::full:
        return testBit(e, c);
      case SharerFormat::coarse:
        return testBit(e, group(c));
      case SharerFormat::limited:
        return e.overflow || holdsPointer(e, c);
    }
    return false;
}

void
HomeDirectory::readFromOwner(Entry &e, CoreId reader)
{
    switch (format_) {
      case SharerFormat::full:
        setBit(e, reader);
        break;
      case SharerFormat::coarse:
        setBit(e, group(reader));
        break;
      case SharerFormat::limited:
        if (!e.overflow && !holdsPointer(e, reader)) {
            if (e.pointers < p_)
                setPointer(e, e.pointers++, reader);
            else
                e.overflow = true; // Past P sharers: broadcast.
        }
        break;
    }
    // MESIF: the reader becomes the new Forwarding owner. Plain MESI
    // has no clean owner once the line is shared.
    e.owner = f_state_ ? reader : invalidCore;
}

Mesif
HomeDirectory::readFromMemory(Entry &e, CoreId reader)
{
    const bool solo = others(e, reader).empty();
    // The same sharer update as a read the owner serves; a solo
    // reader fills Exclusive and owns the line under MESI too.
    readFromOwner(e, reader);
    if (solo) {
        e.owner = reader;
        return Mesif::exclusive;
    }
    return f_state_ ? Mesif::forwarding : Mesif::shared;
}

void
HomeDirectory::write(Entry &e, CoreId writer)
{
    e.overflow = false;
    e.owner = writer;
    if (format_ == SharerFormat::limited) {
        setPointer(e, 0, writer);
        e.pointers = 1;
        return;
    }
    std::fill_n(bitsOf(e), words_, Word{0});
    setBit(e, format_ == SharerFormat::coarse ? group(writer) : writer);
}

void
HomeDirectory::writeback(Addr line, CoreId core)
{
    Entry &e = slots_[slotOf(line)];
    if (e.line != line)
        return;
    // Coarse group bits and overflowed limited entries keep their
    // conservative superset (it must never under-approximate). A
    // limited entry keeps its pointers in lanes [0, pointers): the
    // last one fills the freed lane.
    if (format_ == SharerFormat::full) {
        resetBit(e, core);
    } else if (format_ == SharerFormat::limited && !e.overflow) {
        for (unsigned i = 0; i < e.pointers; ++i) {
            if (pointer(e, i) == core) {
                setPointer(e, i, pointer(e, --e.pointers));
                break;
            }
        }
    }
    if (e.owner == core)
        e.owner = invalidCore;
}

void
HomeDirectory::grow()
{
    const std::size_t n = slots_.size() * 2;
    const std::vector<Entry> old_slots =
        std::exchange(slots_, std::vector<Entry>(n));
    const std::vector<Word> old_bits =
        std::exchange(bits_, std::vector<Word>(n * words_));
    for (std::size_t j = 0; j < old_slots.size(); ++j) {
        if (old_slots[j].line == noLine)
            continue;
        const std::size_t i = slotOf(old_slots[j].line);
        slots_[i] = old_slots[j];
        std::copy_n(old_bits.data() + j * words_, words_,
                    bits_.data() + i * words_);
    }
}

void
HomeDirectory::hashInto(StateHasher &h) const
{
    for (const Entry &e : slots_) {
        if (e.line == noLine)
            continue;
        StateHasher sub;
        sub.mix(e.line);
        sub.mix(e.owner);
        sub.mix(e.overflow);
        for (CoreId c : sharers(e))
            sub.mix(c);
        sub.mix(~std::uint64_t{0});
        h.mixUnordered(sub.value());
    }
}

} // namespace spp
