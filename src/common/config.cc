#include "common/config.hh"

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"

namespace spp {

namespace {

// --- SPP_CONFIG_FIELDS completeness guards -------------------------

/** Number of entries in SPP_CONFIG_FIELDS. */
constexpr std::size_t configFieldCount = 0
#define SPP_COUNT_FIELD(f) +1
    SPP_CONFIG_FIELDS(SPP_COUNT_FIELD)
#undef SPP_COUNT_FIELD
    ;

/** Converts to any field type exactly (no narrowing involved). */
struct Probe
{
    template <typename T> constexpr operator T() const;
};

/** True iff aggregate T is brace-initializable with N values. */
template <typename T, std::size_t N>
constexpr bool bracesWithN =
    []<std::size_t... Is>(std::index_sequence<Is...>) {
        return requires { T{((void)Is, Probe{})...}; };
    }(std::make_index_sequence<N>{});

// An aggregate accepts up to (and including) its field count of
// initializers, so together these pin Config's field count to the
// macro's entry count: a field added to the struct but not the list
// (or vice versa) fails here.
static_assert(bracesWithN<Config, configFieldCount>,
              "SPP_CONFIG_FIELDS lists more entries than Config has "
              "fields");
static_assert(!bracesWithN<Config, configFieldCount + 1>,
              "Config gained a field: add it to SPP_CONFIG_FIELDS "
              "(and thus to configDescribe/configHash)");

/** Field order/type mirror; catches list reorderings the count
 * guard cannot. */
struct ConfigMirror
{
#define SPP_MIRROR_FIELD(f) decltype(Config::f) f;
    SPP_CONFIG_FIELDS(SPP_MIRROR_FIELD)
#undef SPP_MIRROR_FIELD
};
static_assert(sizeof(ConfigMirror) == sizeof(Config),
              "SPP_CONFIG_FIELDS disagrees with Config's layout");

// Enum fields render through toString; all others print natively,
// exactly as the hand-written describe always did.
std::ostream &
printValue(std::ostream &os, Protocol v)
{
    return os << toString(v);
}

std::ostream &
printValue(std::ostream &os, PredictorKind v)
{
    return os << toString(v);
}

std::ostream &
printValue(std::ostream &os, SharerFormat v)
{
    return os << toString(v);
}

template <typename T>
std::ostream &
printValue(std::ostream &os, const T &v)
{
    return os << v;
}

} // namespace

const char *
toString(Protocol p)
{
    switch (p) {
      case Protocol::directory: return "directory";
      case Protocol::broadcast: return "broadcast";
      case Protocol::predicted: return "predicted";
      case Protocol::multicast: return "multicast";
    }
    return "?";
}

const char *
toString(PredictorKind k)
{
    switch (k) {
      case PredictorKind::none: return "none";
      case PredictorKind::sp:   return "sp";
      case PredictorKind::addr: return "addr";
      case PredictorKind::inst: return "inst";
      case PredictorKind::uni:  return "uni";
    }
    return "?";
}

const char *
toString(SharerFormat f)
{
    switch (f) {
      case SharerFormat::full:    return "full";
      case SharerFormat::coarse:  return "coarse";
      case SharerFormat::limited: return "limited";
    }
    return "?";
}

SharerFormat
sharerFormatFromString(const std::string &s)
{
    if (const auto f = parseSharerFormatName(s))
        return *f;
    SPP_FATAL("unknown sharer format '{}' (full, coarse, limited)", s);
}

std::optional<Protocol>
parseProtocolName(const std::string &s)
{
    if (s == "directory")
        return Protocol::directory;
    if (s == "broadcast")
        return Protocol::broadcast;
    if (s == "predicted")
        return Protocol::predicted;
    if (s == "multicast")
        return Protocol::multicast;
    return std::nullopt;
}

std::optional<PredictorKind>
parsePredictorName(const std::string &s)
{
    if (s == "none")
        return PredictorKind::none;
    if (s == "sp")
        return PredictorKind::sp;
    if (s == "addr")
        return PredictorKind::addr;
    if (s == "inst")
        return PredictorKind::inst;
    if (s == "uni")
        return PredictorKind::uni;
    return std::nullopt;
}

std::optional<SharerFormat>
parseSharerFormatName(const std::string &s)
{
    if (s == "full")
        return SharerFormat::full;
    if (s == "coarse")
        return SharerFormat::coarse;
    if (s == "limited")
        return SharerFormat::limited;
    return std::nullopt;
}

namespace {

/** True if @p bytes splits into whole sets of @p assoc lines. The
 * product is taken in 64 bits: in 32 it wraps for large @p assoc. */
bool
dividesIntoSets(unsigned bytes, unsigned assoc, unsigned line_bytes)
{
    return assoc != 0 && bytes != 0 &&
        bytes % (std::uint64_t{line_bytes} * assoc) == 0;
}

} // namespace

std::string
configValidate(const Config &c)
{
    if (c.numCores == 0 || c.numCores > maxCores)
        return strfmt("numCores must be in [1, {}], got {}", maxCores,
                      c.numCores);
    if (std::uint64_t{c.meshX} * c.meshY != c.numCores)
        return strfmt("mesh {}x{} does not cover {} cores", c.meshX,
                      c.meshY, c.numCores);
    if (!std::has_single_bit(c.lineBytes))
        return strfmt("lineBytes must be a power of two, got {}",
                      c.lineBytes);
    if (!std::has_single_bit(c.macroBlockBytes) ||
        c.macroBlockBytes < c.lineBytes) {
        return "macroBlockBytes must be a power of two >= lineBytes";
    }
    if (!dividesIntoSets(c.l1Bytes, c.l1Assoc, c.lineBytes))
        return "L1 geometry does not divide into sets";
    if (!dividesIntoSets(c.l2Bytes, c.l2Assoc, c.lineBytes))
        return "L2 geometry does not divide into sets";
    if (c.hotThreshold <= 0.0 || c.hotThreshold >= 1.0)
        return strfmt("hotThreshold must be in (0, 1), got {}",
                      c.hotThreshold);
    if (c.historyDepth == 0 || c.historyDepth > 8)
        return strfmt("historyDepth must be in [1, 8], got {}",
                      c.historyDepth);
    if ((c.protocol == Protocol::predicted ||
         c.protocol == Protocol::multicast) &&
        c.predictor == PredictorKind::none) {
        return strfmt("Protocol::{} requires a predictor kind",
                      toString(c.protocol));
    }
    if (c.coarseCoresPerBit == 0 || c.coarseCoresPerBit > c.numCores)
        return strfmt("coarseCoresPerBit must be in [1, numCores], "
                      "got {}",
                      c.coarseCoresPerBit);
    // HomeDirectory counts a limited entry's pointers in 16 bits.
    if (c.sharerPointers == 0 || c.sharerPointers > 65535)
        return strfmt("sharerPointers must be in [1, 65535], got {}",
                      c.sharerPointers);
    if (c.linkBytesPerCycle == 0)
        return "linkBytesPerCycle must be non-zero";
    if (c.enableDram && (c.dramBanks == 0 || c.dramRowLines == 0))
        return "DRAM model needs non-zero banks and row size";
    if (!std::has_single_bit(c.filterRegionBytes) ||
        c.filterRegionBytes < c.lineBytes) {
        return "filterRegionBytes must be a power of two >= "
               "lineBytes";
    }
    return "";
}

void
Config::validate() const
{
    const std::string err = configValidate(*this);
    if (!err.empty())
        SPP_FATAL("{}", err);
}

std::string
configDescribe(const Config &c)
{
    std::ostringstream os;
    bool first = true;
#define SPP_DESCRIBE_FIELD(f)                                         \
    if (!first)                                                       \
        os << ' ';                                                    \
    first = false;                                                    \
    os << #f << '=';                                                  \
    printValue(os, c.f);
    SPP_CONFIG_FIELDS(SPP_DESCRIBE_FIELD)
#undef SPP_DESCRIBE_FIELD
    return os.str();
}

std::size_t
Config::sharerEntryBits() const
{
    switch (sharerFormat) {
      case SharerFormat::full:
        return numCores;
      case SharerFormat::coarse:
        return (numCores + coarseCoresPerBit - 1) / coarseCoresPerBit;
      case SharerFormat::limited:
        return sharerPointers * std::bit_width(numCores - 1u) + 1;
    }
    return 0;
}

std::string
parsePositive(const std::string &what, const std::string &text,
              double &out)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    const bool leads = !text.empty() &&
        ((text[0] >= '0' && text[0] <= '9') || text[0] == '.');
    if (!leads || errno != 0 || *end != '\0' || !std::isfinite(v) ||
        !(v > 0.0))
        return what + " expects a positive number, got '" + text + "'";
    out = v;
    return "";
}

std::string
parseUnsigned(const std::string &what, const std::string &text,
              std::uint64_t lo, std::uint64_t hi, std::uint64_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return what + " expects an unsigned integer, got '" + text +
            "'";
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno != 0 || v < lo || v > hi)
        return what + " must be in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "], got '" + text + "'";
    out = v;
    return "";
}

void
meshFor(unsigned n, unsigned &x, unsigned &y)
{
    y = 1;
    for (unsigned d = 2; d * d <= n; ++d)
        if (n % d == 0)
            y = d;
    x = n / y;
}

std::uint64_t
configHash(const Config &cfg)
{
    // FNV-1a over the canonical description.
    return fnv1a64(configDescribe(cfg));
}

namespace {

// --- configSetField value parsers, one per field shape -------------

std::string
parseFieldValue(const char *name, const std::string &v, bool &out)
{
    if (v == "0" || v == "false") {
        out = false;
        return "";
    }
    if (v == "1" || v == "true") {
        out = true;
        return "";
    }
    return std::string(name) + " expects 0/1/true/false, got '" + v +
        "'";
}

std::string
parseFieldValue(const char *name, const std::string &v, double &out)
{
    std::size_t used = 0;
    double parsed = 0.0;
    try {
        parsed = std::stod(v, &used);
    } catch (...) {
        used = 0;
    }
    if (used == 0 || used != v.size())
        return std::string(name) + " expects a number, got '" + v +
            "'";
    out = parsed;
    return "";
}

std::string
parseFieldValue(const char *name, const std::string &v, Protocol &out)
{
    if (const auto p = parseProtocolName(v)) {
        out = *p;
        return "";
    }
    return std::string(name) + ": unknown protocol '" + v + "'";
}

std::string
parseFieldValue(const char *name, const std::string &v,
                PredictorKind &out)
{
    if (const auto p = parsePredictorName(v)) {
        out = *p;
        return "";
    }
    return std::string(name) + ": unknown predictor '" + v + "'";
}

std::string
parseFieldValue(const char *name, const std::string &v,
                SharerFormat &out)
{
    if (const auto p = parseSharerFormatName(v)) {
        out = *p;
        return "";
    }
    return std::string(name) + ": unknown sharer format '" + v + "'";
}

template <typename T>
    requires std::is_unsigned_v<T>
std::string
parseFieldValue(const char *name, const std::string &v, T &out)
{
    std::uint64_t parsed = 0;
    std::string err = parseUnsigned(name, v, 0,
                                    std::numeric_limits<T>::max(), parsed);
    if (err.empty())
        out = static_cast<T>(parsed);
    return err;
}

} // namespace

std::string
configSetField(Config &cfg, const std::string &name,
               const std::string &value)
{
#define SPP_SET_FIELD(f)                                              \
    if (name == #f)                                                   \
        return parseFieldValue(#f, value, cfg.f);
    SPP_CONFIG_FIELDS(SPP_SET_FIELD)
#undef SPP_SET_FIELD
    return "unknown config field '" + name + "'";
}

} // namespace spp
