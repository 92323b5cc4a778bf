/**
 * @file
 * Minimal JSON document model for the telemetry subsystem.
 *
 * The simulator has no third-party dependencies, so telemetry brings
 * its own small JSON value type: enough to build Chrome-trace files
 * and run manifests (writer with full string escaping, objects that
 * preserve insertion order) and to parse them back (a strict
 * recursive-descent parser the tests use to verify every emitted
 * document is well formed and round-trips).
 *
 * Numbers are stored as double; values that are integral print
 * without a fractional part so counters round-trip exactly (all
 * simulator counters stay far below 2^53).
 */

#ifndef SPP_TELEMETRY_JSON_HH
#define SPP_TELEMETRY_JSON_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spp {

class Json
{
  public:
    enum class Kind { null, boolean, number, string, array, object };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : kind_(Kind::boolean), bool_(b) {}
    Json(double v) : kind_(Kind::number), num_(v) {}
    Json(int v) : Json(static_cast<double>(v)) {}
    Json(unsigned v) : Json(static_cast<double>(v)) {}
    Json(long v) : Json(static_cast<double>(v)) {}
    Json(unsigned long v) : Json(static_cast<double>(v)) {}
    Json(long long v) : Json(static_cast<double>(v)) {}
    Json(unsigned long long v) : Json(static_cast<double>(v)) {}
    Json(const char *s) : kind_(Kind::string), str_(s) {}
    Json(std::string s) : kind_(Kind::string), str_(std::move(s)) {}

    static Json
    array()
    {
        Json j;
        j.kind_ = Kind::array;
        return j;
    }

    static Json
    object()
    {
        Json j;
        j.kind_ = Kind::object;
        return j;
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::null; }
    bool isObject() const { return kind_ == Kind::object; }
    bool isArray() const { return kind_ == Kind::array; }
    bool isNumber() const { return kind_ == Kind::number; }
    bool isString() const { return kind_ == Kind::string; }

    bool asBool() const { return bool_; }
    double asNumber() const { return num_; }
    const std::string &asString() const { return str_; }

    /** Object member access; inserts a null member when absent. A
     * null/default Json silently becomes an object first. */
    Json &operator[](const std::string &key);

    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Object members, in insertion order. */
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return obj_;
    }

    /** Array append. A null/default Json becomes an array first. */
    void push(Json v);

    const std::vector<Json> &items() const { return arr_; }

    std::size_t
    size() const
    {
        return kind_ == Kind::array ? arr_.size() : obj_.size();
    }

    /**
     * Serialize. @p indent < 0 emits the compact single-line form;
     * >= 0 pretty-prints with that starting indentation depth (two
     * spaces per level).
     */
    void write(std::ostream &os, int indent = -1) const;
    std::string dump(int indent = -1) const;

    /** Deepest nesting of objects and arrays parse() accepts. */
    static constexpr unsigned maxParseDepth = 64;

    /** Strict parse of a complete document; nullopt on malformed
     * input, nesting deeper than maxParseDepth or trailing
     * garbage. */
    static std::optional<Json> parse(std::string_view text);

  private:
    Kind kind_ = Kind::null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/** Print @p v the way the JSON writer does: integral values without
 * a fractional part, others with full round-trip precision. Shared
 * with the CSV exporter so both formats agree byte-for-byte. */
void writeJsonNumber(std::ostream &os, double v);

} // namespace spp

#endif // SPP_TELEMETRY_JSON_HH
