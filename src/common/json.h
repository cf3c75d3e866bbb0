#ifndef HARMONY_COMMON_JSON_H_
#define HARMONY_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace harmony::json {

/// A small JSON document model built for the serving layer's wire format.
/// Two properties matter more than generality:
///
///  * **Canonical output.** `Dump()` emits no whitespace, keeps object keys
///    in insertion order, renders integral doubles below 2^53 as integers,
///    and renders everything else with the shortest round-trip form
///    (std::to_chars). The same Value always dumps to the same bytes, on any
///    host — which is what makes FNV-1a over the dump a stable cache key.
///  * **Order-preserving objects.** Members are a flat vector of pairs, not
///    a hash map, so serialize -> parse -> serialize is byte-identical
///    (golden-tested in wire_test).
///
/// Numbers are stored as double. Every quantity in the planner fits: byte
/// counts stay far below 2^53 and bandwidths are doubles to begin with.
class Value {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.type_ = Type::kBool;
    v.bool_ = b;
    return v;
  }
  static Value Number(double d) {
    Value v;
    v.type_ = Type::kNumber;
    v.number_ = d;
    return v;
  }
  static Value Int(int64_t i) { return Number(static_cast<double>(i)); }
  static Value Str(std::string s) {
    Value v;
    v.type_ = Type::kString;
    v.string_ = std::move(s);
    return v;
  }
  static Value Array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value Object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  const std::string& AsString() const { return string_; }

  /// Sizes an array's items or an object's members for `n` entries.
  void Reserve(size_t n) {
    if (type_ == Type::kArray) items_.reserve(n);
    if (type_ == Type::kObject) members_.reserve(n);
  }

  // --- array interface -----------------------------------------------------
  size_t size() const { return items_.size(); }
  const Value& at(size_t i) const { return items_.at(i); }
  Value& Append(Value v) {
    items_.push_back(std::move(v));
    return items_.back();
  }
  const std::vector<Value>& items() const { return items_; }

  // --- object interface (insertion-ordered) --------------------------------
  Value& Set(std::string key, Value v) {
    members_.emplace_back(std::move(key), std::move(v));
    return members_.back().second;
  }
  Value& Set(std::string key, bool b) { return Set(std::move(key), Bool(b)); }
  Value& Set(std::string key, double d) { return Set(std::move(key), Number(d)); }
  Value& Set(std::string key, int64_t i) { return Set(std::move(key), Int(i)); }
  Value& Set(std::string key, int i) { return Set(std::move(key), Int(i)); }
  Value& Set(std::string key, const char* s) { return Set(std::move(key), Str(s)); }
  Value& Set(std::string key, std::string s) {
    return Set(std::move(key), Str(std::move(s)));
  }

  /// Returns the first member with `key`, or nullptr. Linear scan — wire
  /// objects have a dozen members, not thousands.
  const Value* Find(std::string_view key) const;

  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  /// Canonical serialization (see class comment).
  std::string Dump() const;
  void DumpTo(std::string* out) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> items_;                             // kArray
  std::vector<std::pair<std::string, Value>> members_;   // kObject
};

/// The canonical renderings of a string (quoted, escaped) and a number (see
/// Value's class comment), appended to `out`. Value::DumpTo and Writer both
/// render through these, so the canonical bytes are defined once.
void AppendQuoted(std::string_view s, std::string* out);
void AppendNumber(double d, std::string* out);

/// Streams JSON into a string with exactly the bytes Value::DumpTo would
/// produce for the same document, without building the document. The
/// caller balances Begin/End and pairs each Key with one value; the writer
/// only places the commas.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }

  /// Starts an object member; the next call writes its value.
  void Key(std::string_view key) {
    Separate();
    AppendQuoted(key, out_);
    out_->push_back(':');
    first_ = true;
  }

  void Bool(bool b) {
    Separate();
    *out_ += b ? "true" : "false";
  }
  void Number(double d) {
    Separate();
    AppendNumber(d, out_);
  }
  /// Integers render as the double they become in a Value (Value::Int).
  void Int(int64_t i) { Number(static_cast<double>(i)); }
  void String(std::string_view s) {
    Separate();
    AppendQuoted(s, out_);
  }

  // Key + value, with the overload set of Value::Set.
  void Field(std::string_view key, bool b) {
    Key(key);
    Bool(b);
  }
  void Field(std::string_view key, double d) {
    Key(key);
    Number(d);
  }
  void Field(std::string_view key, int64_t i) {
    Key(key);
    Int(i);
  }
  void Field(std::string_view key, int i) {
    Key(key);
    Int(i);
  }
  void Field(std::string_view key, const char* s) {
    Key(key);
    String(s);
  }
  void Field(std::string_view key, std::string_view s) {
    Key(key);
    String(s);
  }

 private:
  void Separate() {
    if (!first_) out_->push_back(',');
    first_ = false;
  }
  void Open(char c) {
    Separate();
    out_->push_back(c);
    first_ = true;
  }
  void Close(char c) {
    out_->push_back(c);
    first_ = false;
  }

  std::string* out_;
  bool first_ = true;  // no comma before the next value
};

/// Pulls one JSON document straight from its bytes, building no Value: the
/// caller asks for the value it expects next. Parse builds its Value
/// through this reader, so both accept the same documents, read
/// bit-identical numbers and strings, cap nesting at the same depth and
/// fail with the same messages at the same offsets.
///
/// Each read skips the whitespace before its token. A copy of a reader is
/// a bookmark: assigning it back rewinds to where the copy was taken.
/// Objects and arrays are walked with Begin* then Next* until `*more`
/// comes back false:
///
///   HARMONY_RETURN_IF_ERROR(r.BeginObject());
///   for (;;) {
///     HARMONY_RETURN_IF_ERROR(r.NextMember(&key, &more));
///     if (!more) break;
///     ... read or Skip() the member's value ...
///   }
class Reader {
 public:
  /// The deepest nesting a document may have: the top-level value is at
  /// depth 0, a member or item of a container one deeper than it.
  static constexpr int kMaxDepth = 64;

  explicit Reader(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  /// The type of the next value, judged by its first byte. A byte that
  /// starts no other type reports kNumber and the end of the input kNull,
  /// so the matching read then fails with the parser's message.
  Value::Type Peek();

  Status ReadNull();
  Status ReadBool(bool* out);
  Status ReadNumber(double* out);
  /// Unescapes the next string into `*out`.
  Status ReadString(std::string* out);
  /// Reads the next string without copying it when it holds no escapes:
  /// `*out` then views the input; otherwise it views an unescaped copy the
  /// reader keeps until its next string read.
  Status ReadString(std::string_view* out);

  /// Opens the object (array) whose '{' ('[') is next.
  Status BeginObject();
  Status BeginArray();
  /// Steps to the next member of the innermost open object: sets `*key`
  /// (as ReadString does) and consumes the ':' before the value, or, at the
  /// closing '}', consumes it and sets `*more` to false.
  Status NextMember(std::string_view* key, bool* more);
  Status NextMember(std::string* key, bool* more);
  /// Steps to the next item of the innermost open array, or past its ']'.
  Status NextItem(bool* more);

  /// Reads the next value of any type, validating it, and discards it.
  Status Skip();
  /// Succeeds when only whitespace remains.
  Status Finish();

 private:
  Status Error(const char* what) const;
  void SkipWs();
  bool Consume(char c);
  /// Skips whitespace and checks the depth cap and the end of the input.
  Status StartValue();
  /// Scans the next number's token: the grammar json::Parse accepts,
  /// which std::strtod consumes whole.
  Status NumberToken(std::string_view* token);
  /// The separator before the next member or item: true when one follows.
  Status Separate(char close, const char* expected, bool* more);
  /// Reads a string body; see ReadString(std::string_view*). When it holds
  /// escapes they are unescaped into `*buf`.
  Status StringBody(std::string* buf, std::string_view* out);
  /// StringBody past its first escape; `run` starts the unescaped prefix.
  Status EscapedString(const char* run, std::string* buf, std::string_view* out);
  Status Key(std::string* buf, std::string_view* key);

  const char* begin_;
  const char* p_;
  const char* end_;
  int depth_ = 0;      // open containers
  bool first_ = true;  // no member or item read yet in the innermost one
  std::string scratch_;  // unescaped strings read as views
};

// The reader's per-token steps, inline: a plan frame takes a few hundred.

inline void Reader::SkipWs() {
  while (p_ != end_ &&
         (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
    ++p_;
  }
}

inline bool Reader::Consume(char c) {
  if (p_ != end_ && *p_ == c) {
    ++p_;
    return true;
  }
  return false;
}

inline Status Reader::StartValue() {
  SkipWs();
  // Depth-capped so hostile input can't blow the stack of a daemon thread.
  if (depth_ > kMaxDepth) return Error("nesting too deep");
  if (p_ == end_) return Error("unexpected end");
  return Status::Ok();
}

inline Value::Type Reader::Peek() {
  SkipWs();
  if (p_ == end_) return Value::Type::kNull;
  switch (*p_) {
    case '{': return Value::Type::kObject;
    case '[': return Value::Type::kArray;
    case '"': return Value::Type::kString;
    case 't':
    case 'f': return Value::Type::kBool;
    case 'n': return Value::Type::kNull;
    default: return Value::Type::kNumber;
  }
}

inline Status Reader::StringBody(std::string* buf, std::string_view* out) {
  if (!Consume('"')) return Error("expected string");
  // Fast path: a string without escapes is a view of the input.
  const char* run = p_;
  while (p_ != end_ && *p_ != '"' && *p_ != '\\') ++p_;
  if (p_ != end_ && *p_ == '"') {
    *out = std::string_view(run, static_cast<size_t>(p_ - run));
    ++p_;
    return Status::Ok();
  }
  return EscapedString(run, buf, out);
}

inline Status Reader::ReadString(std::string_view* out) {
  HARMONY_RETURN_IF_ERROR(StartValue());
  HARMONY_RETURN_IF_ERROR(StringBody(&scratch_, out));
  first_ = false;
  return Status::Ok();
}

inline Status Reader::Separate(char close, const char* expected, bool* more) {
  SkipWs();
  const bool first = first_;
  first_ = false;
  if (Consume(close)) {
    // Closing a container completes a value of the one around it.
    --depth_;
    *more = false;
    return Status::Ok();
  }
  if (!first && !Consume(',')) return Error(expected);
  *more = true;
  return Status::Ok();
}

inline Status Reader::Key(std::string* buf, std::string_view* key) {
  SkipWs();
  HARMONY_RETURN_IF_ERROR(StringBody(buf, key));
  SkipWs();
  if (!Consume(':')) return Error("expected ':'");
  return Status::Ok();
}

inline Status Reader::NextMember(std::string_view* key, bool* more) {
  HARMONY_RETURN_IF_ERROR(Separate('}', "expected ',' or '}'", more));
  return *more ? Key(&scratch_, key) : Status::Ok();
}

inline Status Reader::NextItem(bool* more) {
  return Separate(']', "expected ',' or ']'", more);
}

/// Parses a JSON document (UTF-8 passed through unchecked; \uXXXX escapes
/// outside ASCII are rejected rather than decoded — the wire format never
/// produces them). Trailing garbage after the document is an error.
Result<Value> Parse(std::string_view text);

/// 64-bit FNV-1a over a byte string; the serving layer's content-address.
uint64_t Fnv1a(std::string_view bytes);

/// Lower-case 16-digit hex rendering of a fingerprint.
std::string FingerprintHex(uint64_t fp);

/// Inverse of FingerprintHex: exactly 16 hex digits (either case), else
/// InvalidArgument.
Result<uint64_t> ParseFingerprintHex(std::string_view hex);

/// True when `d` is an integer in [lo, hi], i.e. converts to int64_t
/// without truncating, wrapping or undefined behaviour.
bool IsIntegerIn(double d, int64_t lo, int64_t hi);

/// The InvalidArgument for an object member `key` that is absent or is not
/// a `want` ("number", "string", "bool", "object", "array").
Status MissingOrMistyped(std::string_view key, const char* want);

/// `d` as the integer type of `out`, or an InvalidArgument naming `key`
/// when `d` is not an integer that fits it.
Status ToInteger(std::string_view key, double d, int* out);
Status ToInteger(std::string_view key, double d, int64_t* out);

// Typed field accessors: read `key` from object `obj` into `out`, failing
// with a descriptive InvalidArgument when the key is missing or mistyped.
// The integer readers also refuse numbers that are not integers or do not
// fit the output type.
Status ReadBool(const Value& obj, std::string_view key, bool* out);
Status ReadInt(const Value& obj, std::string_view key, int* out);
Status ReadInt64(const Value& obj, std::string_view key, int64_t* out);
Status ReadDouble(const Value& obj, std::string_view key, double* out);
Status ReadString(const Value& obj, std::string_view key, std::string* out);

}  // namespace harmony::json

#endif  // HARMONY_COMMON_JSON_H_
