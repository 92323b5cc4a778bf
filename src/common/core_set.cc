#include "common/core_set.hh"

#include <sstream>

#include "common/logging.hh"

namespace spp {

std::string
CoreSet::toString() const
{
    std::ostringstream os;
    os << '{';
    bool is_first = true;
    for (CoreId c : *this) {
        if (!is_first)
            os << ',';
        os << c;
        is_first = false;
    }
    os << '}';
    return os.str();
}

std::string
CoreSet::toBitString(unsigned n_cores) const
{
    std::string s;
    s.reserve(n_cores);
    for (unsigned c = 0; c < n_cores; ++c)
        s.push_back(test(c) ? '1' : '0');
    return s;
}

std::string
CoreSet::toHex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    bool leading = true;
    for (unsigned w = used_; w-- > 0;) {
        for (unsigned nib = 16; nib-- > 0;) {
            const unsigned d =
                static_cast<unsigned>(w_[w] >> (nib * 4)) & 0xf;
            if (leading && d == 0)
                continue;
            leading = false;
            s.push_back(digits[d]);
        }
    }
    if (s.empty())
        s.push_back('0');
    return s;
}

CoreSet
CoreSet::fromHex(const std::string &hex)
{
    SPP_ASSERT(!hex.empty() && hex.size() <= nWords * 16,
               "malformed CoreSet hex string '{}'", hex);
    CoreSet s;
    s.used_ = static_cast<unsigned>((hex.size() + 15) / 16);
    for (unsigned w = 0; w < s.used_; ++w)
        s.w_[w] = 0;
    unsigned nib = 0; // Nibble position from the least significant end.
    for (std::size_t i = hex.size(); i-- > 0; ++nib) {
        const char c = hex[i];
        unsigned d;
        if (c >= '0' && c <= '9')
            d = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            d = static_cast<unsigned>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            d = static_cast<unsigned>(c - 'A') + 10;
        else
            SPP_FATAL("malformed CoreSet hex string '{}'", hex);
        s.w_[nib / 16] |= static_cast<Word>(d) << (nib % 16 * 4);
    }
    return s;
}

} // namespace spp
