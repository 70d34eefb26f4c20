/**
 * @file
 * A small dependency-free JSON value tree.
 *
 * Json is the document model behind every machine-readable output of
 * the simulator: the RunReport written by the bench binaries' --report
 * flag (with each row's MultiCoreSystem::statsJson() tree), the
 * --metrics records, and zcomp_inspect --json. It keeps
 * object keys in insertion order so emitted schemas are stable, and
 * it round-trips: parse(dump(v)) reproduces v for any tree built
 * through this API (integers stay exact; doubles print with enough
 * digits to survive the trip).
 *
 * The parser validates the full JSON grammar (used by the tests and
 * by tools that re-read reports); it is recursive descent over an
 * in-memory string, which is plenty for report-sized documents.
 */

#ifndef ZCOMP_COMMON_JSON_HH
#define ZCOMP_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace zcomp {

class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,        //!< signed 64-bit integer (printed exactly)
        Uint,       //!< unsigned 64-bit integer (printed exactly)
        Double,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(int v) : kind_(Kind::Int), int_(v) {}
    Json(long v) : kind_(Kind::Int), int_(v) {}
    Json(long long v) : kind_(Kind::Int), int_(v) {}
    Json(unsigned v) : kind_(Kind::Uint), uint_(v) {}
    Json(unsigned long v) : kind_(Kind::Uint), uint_(v) {}
    Json(unsigned long long v) : kind_(Kind::Uint), uint_(v) {}
    Json(double v) : kind_(Kind::Double), double_(v) {}
    Json(const char *s) : kind_(Kind::String), string_(s) {}
    Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

    static Json array() { Json j; j.kind_ = Kind::Array; return j; }
    static Json object() { Json j; j.kind_ = Kind::Object; return j; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Uint ||
               kind_ == Kind::Double;
    }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }
    double asDouble() const;
    int64_t asInt() const;
    uint64_t asUint() const;
    const std::string &asString() const { return string_; }

    /** Array element count / object member count / 0 otherwise. */
    size_t size() const;

    /** Append to an array (Null promotes to Array). */
    void push(Json v);

    /** Array element access (no bounds promotion). */
    Json &at(size_t i) { return array_[i]; }
    const Json &at(size_t i) const { return array_[i]; }

    /**
     * Object member access; inserts a Null member for missing keys
     * (Null promotes to Object). Keys keep insertion order.
     */
    Json &operator[](const std::string &key);

    /** Object member lookup without insertion; null if absent. */
    const Json *find(const std::string &key) const;

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return object_;
    }

    /**
     * Serialize. indent < 0 gives the compact one-line form;
     * indent >= 0 pretty-prints with that many spaces per level.
     * Non-finite doubles serialize as null (JSON has no NaN/Inf).
     */
    std::string dump(int indent = -1) const;

    /**
     * Parse a complete JSON document (trailing whitespace allowed,
     * trailing garbage is an error). On failure returns Null and, if
     * err is non-null, stores a message with the byte offset.
     */
    static Json parse(const std::string &text,
                      std::string *err = nullptr);

    bool operator==(const Json &o) const;
    bool operator!=(const Json &o) const { return !(*this == o); }

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    uint64_t uint_ = 0;
    double double_ = 0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

/** Escape a string for embedding between JSON double quotes. */
std::string jsonEscape(const std::string &s);

/** Shortest %g form of a double that parses back to the same value. */
std::string jsonNumber(double v);

} // namespace zcomp

#endif // ZCOMP_COMMON_JSON_HH
