// The one JSON reader and writer kit behind every spec document
// (ScenarioSpec, LifetimeSpec, SweepManifest, FleetStudySpec). It lives
// in tensor/ because core/variability sits below eval and both decode
// documents.
//
// The subset is exactly what the to_json() writers emit: objects,
// arrays, strings without escapes or control characters, numbers and
// booleans. parse() reads a whole document into one Value tree, bounded
// and strict:
//   * objects and arrays nest at most kMaxDepth levels (the root is
//     level 1), so a hostile document gets an error naming the field,
//     never a stack overflow;
//   * trailing characters and duplicate keys are errors;
//   * a number keeps its source text, and the typed field readers accept
//     it only when the whole text is an RFC 8259 §6 number (integers:
//     no fraction or exponent, in range; u64: no sign either).
// Fields decodes one object with the dotted-path error convention
// ("train.lr: expected a number") and rejects the members it was never
// asked for, so a misspelled field fails instead of keeping a default.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace qavat {
namespace json {

/// Deepest object/array nesting parse() accepts (the root object is
/// level 1; every to_json() here emits at most 5 levels). Each level is
/// one stack frame of the recursive descent.
inline constexpr int kMaxDepth = 32;

/// One parsed JSON value.
struct Value {
  /// Which member below holds the value.
  enum Kind { kObject, kArray, kString, kNumber, kBool };
  Kind kind = kNumber;                   ///< type of this value
  bool b = false;                        ///< kBool
  std::string text;                      ///< kString contents or kNumber
                                         ///< source text
  std::map<std::string, Value> members;  ///< kObject
  std::vector<Value> items;              ///< kArray
};

/// Parse a whole document whose root is an object into *out. Returns
/// false with *error (never null) set on malformed JSON ("malformed
/// JSON at byte N", "malformed JSON (trailing characters)"), nesting past
/// kMaxDepth ("train.x.x: objects nested deeper than 32 levels") or a
/// duplicate key ("train.lr: duplicate key"). Inside an array element the
/// path restarts after the index: "specs[0]: eval.x".
bool parse(const std::string& text, Value* out, std::string* error);

/// Typed reads of one object's members. The first failure is recorded in
/// the shared *error as "<prefix><field>: <what>"; from then on every
/// read is a no-op, so a decoder chains its reads and checks ok() (or
/// end()) once. An absent member keeps the destination's default.
class Fields {
 public:
  /// Reads the members of `obj` (a kObject) into destinations; failures
  /// go to *error, which must outlive this reader and is not cleared.
  Fields(const Value& obj, std::string* error) : Fields(&obj, "", error) {}

  /// True while no read (here or in a sibling sharing *error) failed.
  bool ok() const { return err_->empty(); }

  /// The member `name` if present with `kind`; nullptr when absent or on
  /// a kind mismatch (recorded as "expected an object", "... an array",
  /// "... a string", "... a number" or "... true or false").
  const Value* get(const char* name, Value::Kind kind);

  /// A double; the text must be a whole, finite JSON number.
  Fields& num(const char* name, double* dst);
  /// A signed 64-bit integer: no fraction or exponent, in range.
  Fields& index(const char* name, long long* dst);
  /// An unsigned 64-bit integer: as index(), and without a sign.
  Fields& u64(const char* name, std::uint64_t* dst);
  /// A JSON boolean.
  Fields& boolean(const char* name, bool* dst);
  /// A string token: tokens[i] selects values[i]; any other token is
  /// rejected as "unknown token '<t>'".
  template <typename E>
  Fields& enumeration(const char* name,
                      std::initializer_list<const char*> tokens,
                      std::initializer_list<E> values, E* dst) {
    const int i = token(name, tokens);
    if (i >= 0) *dst = values.begin()[i];
    return *this;
  }
  /// A required integer schema version equal to `version` ("missing",
  /// "version mismatch: expected 1, got 2").
  Fields& schema(const char* name, long long version);
  /// A reader over the nested object `name` whose errors carry the prefix
  /// "<prefix><name>."; reads nothing when the member is absent.
  Fields object(const char* name);

  /// Reject every member no read asked for, as "unknown <noun>
  /// '<prefix><name>'"; returns ok().
  bool end(const char* noun = "field");

 private:
  Fields(const Value* obj, std::string prefix, std::string* error)
      : obj_(obj), prefix_(std::move(prefix)), err_(error) {}
  const Value* find(const char* name, Value::Kind kind, const char* expected);
  int token(const char* name, std::initializer_list<const char*> tokens);
  void fail(const std::string& field, const std::string& what);

  const Value* obj_;  // nullptr: an absent object, nothing to read
  std::string prefix_;
  std::string* err_;
  std::vector<const char*> known_;  // every member name a read asked for
};

/// Append `"k":v` and, unless `last`, a comma; `v` is quoted when `quote`
/// (the writers emit no characters that need escaping).
void kv(std::string& out, const char* k, const std::string& v, bool quote,
        bool last = false);

/// Round-trip-exact double text for JSON ("%.17g").
std::string fmt_exact(double v);

/// Short, stable double text for keys ("%.12g").
std::string fmt_g(double v);

/// Decimal text of a signed integer.
std::string lld(long long v);

}  // namespace json
}  // namespace qavat
