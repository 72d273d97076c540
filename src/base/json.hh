/**
 * @file
 * A small, deterministic JSON layer.
 *
 * One value type (json::Value) backs every machine-readable artifact
 * the simulator emits or consumes: campaign reports, scenario
 * manifests, fuzz repros and telemetry events. Three properties
 * matter more here than generality:
 *
 *  - **Byte-stable emission.** Objects remember insertion order and
 *    doubles print in their shortest round-trippable form, so a
 *    document built from the same data is the same bytes every time
 *    (the driver's parallel == serial report guarantee rests on it).
 *  - **Exact integers.** Unsigned 64-bit counters (cycle and
 *    instruction counts overflow a double's 53-bit mantissa) stay
 *    u64 through a parse/dump round trip; they are never bounced
 *    through a double.
 *  - **Soft errors.** parse() reports malformed input as a message
 *    with line/column instead of aborting, so manifest loaders can
 *    attach their own context (file name, dotted field path).
 *
 * Emission policy: non-finite doubles (NaN, ±inf) have no JSON
 * spelling and are emitted as `null`; strings are escaped minimally
 * (`"` `\` and control characters; multi-byte UTF-8 passes through
 * verbatim).
 */

#ifndef DVI_BASE_JSON_HH
#define DVI_BASE_JSON_HH

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace dvi
{
namespace json
{

/** One JSON value; a tagged union over the seven JSON shapes (with
 * numbers split into exact u64 and double). */
class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        U64,    ///< non-negative integer literal, kept exact
        F64,    ///< any other number
        String,
        Array,
        Object,
    };

    Value() = default;
    Value(bool b) : type_(Type::Bool), bool_(b) {}
    Value(std::uint64_t v) : type_(Type::U64), u64_(v) {}
    Value(int v);  ///< convenience; must be non-negative
    Value(double v) : type_(Type::F64), f64_(v) {}
    Value(std::string s) : type_(Type::String), str_(std::move(s)) {}
    Value(const char *s) : type_(Type::String), str_(s) {}

    static Value array();
    static Value object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isU64() const { return type_ == Type::U64; }
    bool isF64() const { return type_ == Type::F64; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Human-readable type name ("unsigned integer", "object", ...)
     * for diagnostics. */
    const char *typeName() const;

    bool boolean() const { return bool_; }
    std::uint64_t u64() const { return u64_; }
    double f64() const { return f64_; }
    /** Any number as a double (u64 may lose precision past 2^53). */
    double number() const;
    const std::string &str() const { return str_; }

    // -------------------------------------------------------- array
    /** Append an element (value must be an array). */
    void push(Value v);
    const std::vector<Value> &items() const { return arr_; }

    // ------------------------------------------------------- object
    /** Set a member, replacing in place if the key exists, appending
     * otherwise (value must be an object). */
    void set(const std::string &key, Value v);
    /** Member lookup; nullptr if absent or not an object. */
    const Value *find(const std::string &key) const;
    /** Members in insertion order. */
    const std::vector<std::pair<std::string, Value>> &
    members() const
    {
        return obj_;
    }

    /** Deep structural equality (exact for u64, bitwise-value for
     * doubles, order-sensitive for objects). */
    bool operator==(const Value &o) const;
    bool operator!=(const Value &o) const { return !(*this == o); }

    /**
     * Serialize. Deterministic: same value, same bytes. `indent` is
     * the per-level indentation (0 = compact single line). The
     * result has no trailing newline.
     */
    std::string dump(int indent = 2) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::uint64_t u64_ = 0;
    double f64_ = 0.0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

/** Minimal JSON string escaping: `"` `\` and the C0 control
 * characters (common ones as \n \t \r, the rest as \u00xx). All
 * other bytes — including multi-byte UTF-8 — pass through. */
std::string escape(const std::string &s);

/**
 * Shortest formatting of a finite double that parses back to the
 * same bits ("%.17g" pruned); "null" for NaN/±inf (the emission
 * policy above). Identical input bits give identical text.
 */
std::string formatDouble(double v);

/**
 * Read an unsigned JSON integer into the integral type T. Returns ""
 * and sets `out` on success, else the reason without the field's
 * path: the value is not an unsigned integer, or it exceeds T's
 * maximum (so no loader narrows a value silently).
 */
template <typename T,
          std::enable_if_t<std::is_integral_v<T> &&
                               !std::is_same_v<T, bool>,
                           int> = 0>
std::string
decode(const Value &v, T &out)
{
    if (!v.isU64())
        return std::string("expected an unsigned integer, got ") +
               v.typeName();
    constexpr auto max = std::numeric_limits<T>::max();
    if (v.u64() > static_cast<std::uint64_t>(max))
        return "value " + std::to_string(v.u64()) +
               " is out of range (max " + std::to_string(max) + ")";
    out = static_cast<T>(v.u64());
    return "";
}

/** Outcome of parse(): either a value or a positioned error. */
struct ParseResult
{
    Value value;
    /** Empty on success; otherwise "line L, column C: reason". */
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Parse one JSON document (trailing garbage is an error). Integer
 * literals without sign, fraction, or exponent that fit a u64 parse
 * as exact U64 values; everything else numeric parses as F64.
 */
ParseResult parse(const std::string &text);

} // namespace json
} // namespace dvi

#endif // DVI_BASE_JSON_HH
