#include "telemetry/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace spp {

// ---------------------------------------------------------------------
// Mutation
// ---------------------------------------------------------------------

Json &
Json::operator[](const std::string &key)
{
    if (kind_ == Kind::null)
        kind_ = Kind::object;
    for (auto &[k, v] : obj_)
        if (k == key)
            return v;
    obj_.emplace_back(key, Json());
    return obj_.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &[k, v] : obj_)
        if (k == key)
            return &v;
    return nullptr;
}

void
Json::push(Json v)
{
    if (kind_ == Kind::null)
        kind_ = Kind::array;
    arr_.push_back(std::move(v));
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

void
writeJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << 0; // JSON has no inf/nan; clamp rather than corrupt.
        return;
    }
    // Counters and ticks: print integral doubles as integers so they
    // round-trip exactly and diff cleanly.
    constexpr double exact_limit = 9007199254740992.0; // 2^53
    if (v == std::floor(v) && std::abs(v) < exact_limit) {
        os << static_cast<long long>(v);
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

namespace {

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\b': os << "\\b"; break;
          case '\f': os << "\\f"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << static_cast<char>(c);
            }
        }
    }
    os << '"';
}

void
newlineIndent(std::ostream &os, int depth)
{
    os << '\n';
    for (int i = 0; i < depth; ++i)
        os << "  ";
}

} // namespace

void
Json::write(std::ostream &os, int indent) const
{
    const bool pretty = indent >= 0;
    const int next = pretty ? indent + 1 : -1;
    switch (kind_) {
      case Kind::null:
        os << "null";
        break;
      case Kind::boolean:
        os << (bool_ ? "true" : "false");
        break;
      case Kind::number:
        writeJsonNumber(os, num_);
        break;
      case Kind::string:
        writeEscaped(os, str_);
        break;
      case Kind::array:
        os << '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                os << ',';
            if (pretty)
                newlineIndent(os, next);
            arr_[i].write(os, next);
        }
        if (pretty && !arr_.empty())
            newlineIndent(os, indent);
        os << ']';
        break;
      case Kind::object:
        os << '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                os << ',';
            if (pretty)
                newlineIndent(os, next);
            writeEscaped(os, obj_[i].first);
            os << (pretty ? ": " : ":");
            obj_[i].second.write(os, next);
        }
        if (pretty && !obj_.empty())
            newlineIndent(os, indent);
        os << '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

namespace {

struct Parser
{
    std::string_view text;
    std::size_t pos = 0;
    unsigned depth = 0; ///< Open objects and arrays.
    bool failed = false;

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return false;
        pos += word.size();
        return true;
    }

    Json
    fail()
    {
        failed = true;
        return Json();
    }

    Json
    parseString()
    {
        // Opening quote already consumed.
        std::string out;
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return Json(std::move(out));
            if (c == '\\') {
                if (pos >= text.size())
                    return fail();
                char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail();
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[pos++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail();
                    }
                    // Encode the BMP codepoint as UTF-8 (surrogate
                    // pairs are not produced by our writer).
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                  }
                  default:
                    return fail();
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return fail(); // Raw control char inside a string.
            } else {
                out += c;
            }
        }
        return fail(); // Unterminated string.
    }

    /** Object body; the opening brace is already consumed. */
    Json
    parseObject()
    {
        Json obj = Json::object();
        if (consume('}'))
            return obj;
        for (;;) {
            if (!consume('"'))
                return fail();
            Json key = parseString();
            if (failed)
                return Json();
            if (!consume(':'))
                return fail();
            Json val = parseValue();
            if (failed)
                return Json();
            obj[key.asString()] = std::move(val);
            if (consume(','))
                continue;
            if (consume('}'))
                return obj;
            return fail();
        }
    }

    /** Array body; the opening bracket is already consumed. */
    Json
    parseArray()
    {
        Json arr = Json::array();
        if (consume(']'))
            return arr;
        for (;;) {
            Json val = parseValue();
            if (failed)
                return Json();
            arr.push(std::move(val));
            if (consume(','))
                continue;
            if (consume(']'))
                return arr;
            return fail();
        }
    }

    Json
    parseValue()
    {
        skipWs();
        if (pos >= text.size())
            return fail();
        const char c = text[pos];
        if (c == '{' || c == '[') {
            // Each level recurses once: bound it so crafted input
            // fails cleanly instead of overflowing the stack.
            if (depth == Json::maxParseDepth)
                return fail();
            ++pos;
            ++depth;
            Json v = c == '{' ? parseObject() : parseArray();
            --depth;
            return v;
        }
        if (c == '"') {
            ++pos;
            return parseString();
        }
        if (c == 't')
            return literal("true") ? Json(true) : fail();
        if (c == 'f')
            return literal("false") ? Json(false) : fail();
        if (c == 'n')
            return literal("null") ? Json(nullptr) : fail();
        // Number.
        const std::size_t start = pos;
        if (text[pos] == '-')
            ++pos;
        bool digits = false;
        auto eatDigits = [&] {
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9') {
                ++pos;
                digits = true;
            }
        };
        eatDigits();
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            eatDigits();
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            eatDigits();
        }
        if (!digits)
            return fail();
        const std::string num(text.substr(start, pos - start));
        return Json(std::strtod(num.c_str(), nullptr));
    }
};

} // namespace

std::optional<Json>
Json::parse(std::string_view text)
{
    Parser p{text};
    Json v = p.parseValue();
    if (p.failed)
        return std::nullopt;
    p.skipWs();
    if (p.pos != text.size())
        return std::nullopt; // Trailing garbage.
    return v;
}

} // namespace spp
