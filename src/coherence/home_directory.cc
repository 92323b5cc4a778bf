#include "coherence/home_directory.hh"

#include <algorithm>

namespace spp {

HomeDirectory::HomeDirectory(const Config &cfg)
    : format_(cfg.sharerFormat), n_cores_(cfg.numCores),
      k_(cfg.coarseCoresPerBit), p_(cfg.sharerPointers),
      f_state_(cfg.enableFState)
{
}

CoreSet
HomeDirectory::sharers(const Entry &e) const
{
    switch (format_) {
      case SharerFormat::full:
        return e.bits;
      case SharerFormat::coarse: {
        CoreSet s;
        for (CoreId g : e.bits) {
            const unsigned lo = g * k_;
            const unsigned hi = std::min(lo + k_, n_cores_);
            for (unsigned c = lo; c < hi; ++c)
                s.set(static_cast<CoreId>(c));
        }
        return s;
      }
      case SharerFormat::limited:
        return e.overflow ? CoreSet::all(n_cores_) : e.bits;
    }
    return {};
}

bool
HomeDirectory::mayShare(const Entry &e, CoreId c) const
{
    switch (format_) {
      case SharerFormat::full:
        return e.bits.test(c);
      case SharerFormat::coarse:
        return e.bits.test(group(c));
      case SharerFormat::limited:
        return e.overflow || e.bits.test(c);
    }
    return false;
}

void
HomeDirectory::readFromOwner(Entry &e, CoreId reader)
{
    switch (format_) {
      case SharerFormat::full:
        e.bits.set(reader);
        break;
      case SharerFormat::coarse:
        e.bits.set(group(reader));
        break;
      case SharerFormat::limited:
        if (!e.overflow && !e.bits.test(reader)) {
            if (e.bits.count() < p_)
                e.bits.set(reader);
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
    e.bits.clear();
    e.overflow = false;
    e.bits.set(format_ == SharerFormat::coarse ? group(writer) : writer);
    e.owner = writer;
}

void
HomeDirectory::writeback(Addr line, CoreId core)
{
    auto it = entries_.find(line);
    if (it == entries_.end())
        return;
    Entry &e = it->second;
    // Coarse group bits and overflowed limited entries keep their
    // conservative superset (it must never under-approximate).
    if (format_ == SharerFormat::full ||
        (format_ == SharerFormat::limited && !e.overflow))
        e.bits.reset(core);
    if (e.owner == core)
        e.owner = invalidCore;
}

void
HomeDirectory::hashInto(StateHasher &h) const
{
    // lint: allow(unordered-iter) — commutative fold.
    for (const auto &[line, e] : entries_) {
        StateHasher sub;
        sub.mix(line);
        sub.mix(e.owner);
        sub.mix(e.overflow);
        for (CoreId c : sharers(e))
            sub.mix(c);
        sub.mix(~std::uint64_t{0});
        h.mixUnordered(sub.value());
    }
}

} // namespace spp
