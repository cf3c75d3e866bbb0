#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace harmony::json {

const Value* Value::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void AppendQuoted(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  const char* run = s.data();
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(run, p);
    run = p + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(run, end);
  out->push_back('"');
}

void AppendNumber(double d, std::string* out) {
  if (!std::isfinite(d)) {
    // JSON has no inf/nan; the planner never produces them, but a canonical
    // fallback beats undefined bytes.
    *out += "null";
    return;
  }
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  char buf[64];
  std::to_chars_result r;
  if (d == std::floor(d) && std::fabs(d) < kMaxExact) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(d));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), d);
  }
  // 64 bytes always suffice for an int64 or a shortest round-trip double.
  out->append(buf, r.ptr);
}

void Value::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(number_, out);
      break;
    case Type::kString:
      AppendQuoted(string_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i) out->push_back(',');
        items_[i].DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i) out->push_back(',');
        AppendQuoted(members_[i].first, out);
        out->push_back(':');
        members_[i].second.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Value::Dump() const {
  std::string out;
  out.reserve(256);
  DumpTo(&out);
  return out;
}

Status Reader::Error(const char* what) const {
  return Status::InvalidArgument("json: " + std::string(what) + " at offset " +
                                 std::to_string(p_ - begin_));
}

Status Reader::ReadNull() {
  HARMONY_RETURN_IF_ERROR(StartValue());
  if (end_ - p_ >= 4 && std::string_view(p_, 4) == "null") {
    p_ += 4;
    first_ = false;
    return Status::Ok();
  }
  return Error("bad literal");
}

Status Reader::ReadBool(bool* out) {
  HARMONY_RETURN_IF_ERROR(StartValue());
  for (const bool b : {true, false}) {
    const std::string_view word = b ? "true" : "false";
    if (static_cast<size_t>(end_ - p_) >= word.size() &&
        std::string_view(p_, word.size()) == word) {
      p_ += word.size();
      *out = b;
      first_ = false;
      return Status::Ok();
    }
  }
  return Error("bad literal");
}

Status Reader::NumberToken(std::string_view* token) {
  HARMONY_RETURN_IF_ERROR(StartValue());
  const char* const start = p_;
  if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
  bool digits = false;
  auto eat_digits = [&]() {
    bool any = false;
    while (p_ != end_ && *p_ >= '0' && *p_ <= '9') {
      ++p_;
      any = true;
    }
    return any;
  };
  digits = eat_digits();
  if (p_ != end_ && *p_ == '.') {
    ++p_;
    digits = eat_digits() || digits;
  }
  if (!digits) return Error("expected value");
  if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
    ++p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    // The only token of this grammar that strtod does not consume whole.
    if (!eat_digits()) return Error("bad number");
  }
  *token = std::string_view(start, static_cast<size_t>(p_ - start));
  first_ = false;
  return Status::Ok();
}

Status Reader::ReadNumber(double* out) {
  std::string_view token;
  HARMONY_RETURN_IF_ERROR(NumberToken(&token));
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  if (ec != std::errc() || ptr != end) {
    // from_chars refuses a leading '+' and reports underflow or overflow
    // without a value, where strtod accepts the token and rounds (to 0 or
    // inf). Both round correctly, so the slow path changes no value.
    const std::string copy(token);
    char* parsed_end = nullptr;
    *out = std::strtod(copy.c_str(), &parsed_end);
    if (parsed_end != copy.c_str() + copy.size()) return Error("bad number");
  }
  return Status::Ok();
}

Status Reader::EscapedString(const char* run, std::string* buf,
                             std::string_view* out) {
  buf->assign(run, p_);
  for (;;) {
    if (p_ == end_) break;
    if (*p_++ == '"') {
      *out = *buf;
      return Status::Ok();
    }
    if (p_ == end_) break;
    const char e = *p_++;
    switch (e) {
      case '"': buf->push_back('"'); break;
      case '\\': buf->push_back('\\'); break;
      case '/': buf->push_back('/'); break;
      case 'n': buf->push_back('\n'); break;
      case 't': buf->push_back('\t'); break;
      case 'r': buf->push_back('\r'); break;
      case 'b': buf->push_back('\b'); break;
      case 'f': buf->push_back('\f'); break;
      case 'u': {
        if (end_ - p_ < 4) return Error("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = *p_++;
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return Error("bad \\u escape");
        }
        if (code > 0x7f) return Error("non-ASCII \\u escape unsupported");
        buf->push_back(static_cast<char>(code));
        break;
      }
      default:
        return Error("bad escape");
    }
    // Copy the run up to the next quote or escape in one append.
    run = p_;
    while (p_ != end_ && *p_ != '"' && *p_ != '\\') ++p_;
    buf->append(run, p_);
  }
  return Error("unterminated string");
}

Status Reader::ReadString(std::string* out) {
  HARMONY_RETURN_IF_ERROR(StartValue());
  std::string_view s;
  HARMONY_RETURN_IF_ERROR(StringBody(out, &s));
  if (s.data() != out->data()) out->assign(s);
  first_ = false;
  return Status::Ok();
}

Status Reader::BeginObject() {
  HARMONY_RETURN_IF_ERROR(StartValue());
  if (!Consume('{')) return Error("expected '{'");
  ++depth_;
  first_ = true;
  return Status::Ok();
}

Status Reader::BeginArray() {
  HARMONY_RETURN_IF_ERROR(StartValue());
  if (!Consume('[')) return Error("expected '['");
  ++depth_;
  first_ = true;
  return Status::Ok();
}

Status Reader::NextMember(std::string* key, bool* more) {
  HARMONY_RETURN_IF_ERROR(Separate('}', "expected ',' or '}'", more));
  if (!*more) return Status::Ok();
  std::string_view k;
  HARMONY_RETURN_IF_ERROR(Key(key, &k));
  if (k.data() != key->data()) key->assign(k);
  return Status::Ok();
}

Status Reader::Skip() {
  bool more = false;
  switch (Peek()) {
    case Value::Type::kObject: {
      HARMONY_RETURN_IF_ERROR(BeginObject());
      std::string_view key;
      for (;;) {
        HARMONY_RETURN_IF_ERROR(NextMember(&key, &more));
        if (!more) return Status::Ok();
        HARMONY_RETURN_IF_ERROR(Skip());
      }
    }
    case Value::Type::kArray: {
      HARMONY_RETURN_IF_ERROR(BeginArray());
      for (;;) {
        HARMONY_RETURN_IF_ERROR(NextItem(&more));
        if (!more) return Status::Ok();
        HARMONY_RETURN_IF_ERROR(Skip());
      }
    }
    case Value::Type::kString: {
      std::string_view s;
      return ReadString(&s);
    }
    case Value::Type::kBool: {
      bool b;
      return ReadBool(&b);
    }
    case Value::Type::kNull:
      return ReadNull();
    case Value::Type::kNumber: {
      std::string_view token;
      return NumberToken(&token);
    }
  }
  return Status::Ok();
}

Status Reader::Finish() {
  SkipWs();
  if (p_ != end_) return Error("trailing characters");
  return Status::Ok();
}

namespace {

/// Builds a Value from a Reader. Objects and arrays collect their entries
/// on a stack shared by the whole parse, then move them into a vector sized
/// exactly once: no regrowth per member and no over-reserved capacity left
/// in the document.
class Parser {
 public:
  explicit Parser(std::string_view text) : reader_(text) {}

  Result<Value> Run() {
    Value v;
    HARMONY_RETURN_IF_ERROR(ParseValue(&v));
    HARMONY_RETURN_IF_ERROR(reader_.Finish());
    return v;
  }

 private:
  Status ParseValue(Value* out) {
    bool more = false;
    switch (reader_.Peek()) {
      case Value::Type::kObject: {
        HARMONY_RETURN_IF_ERROR(reader_.BeginObject());
        *out = Value::Object();
        const size_t base = members_.size();
        for (;;) {
          std::string key;
          HARMONY_RETURN_IF_ERROR(reader_.NextMember(&key, &more));
          if (!more) break;
          Value v;
          HARMONY_RETURN_IF_ERROR(ParseValue(&v));
          members_.emplace_back(std::move(key), std::move(v));
        }
        out->Reserve(members_.size() - base);
        for (size_t i = base; i < members_.size(); ++i) {
          out->Set(std::move(members_[i].first), std::move(members_[i].second));
        }
        members_.resize(base);
        return Status::Ok();
      }
      case Value::Type::kArray: {
        HARMONY_RETURN_IF_ERROR(reader_.BeginArray());
        *out = Value::Array();
        const size_t base = items_.size();
        for (;;) {
          HARMONY_RETURN_IF_ERROR(reader_.NextItem(&more));
          if (!more) break;
          Value v;
          HARMONY_RETURN_IF_ERROR(ParseValue(&v));
          items_.push_back(std::move(v));
        }
        out->Reserve(items_.size() - base);
        for (size_t i = base; i < items_.size(); ++i) {
          out->Append(std::move(items_[i]));
        }
        items_.resize(base);
        return Status::Ok();
      }
      case Value::Type::kString: {
        std::string s;
        HARMONY_RETURN_IF_ERROR(reader_.ReadString(&s));
        *out = Value::Str(std::move(s));
        return Status::Ok();
      }
      case Value::Type::kBool: {
        bool b = false;
        HARMONY_RETURN_IF_ERROR(reader_.ReadBool(&b));
        *out = Value::Bool(b);
        return Status::Ok();
      }
      case Value::Type::kNull:
        *out = Value::Null();
        return reader_.ReadNull();
      case Value::Type::kNumber: {
        double d = 0;
        HARMONY_RETURN_IF_ERROR(reader_.ReadNumber(&d));
        *out = Value::Number(d);
        return Status::Ok();
      }
    }
    return Status::Ok();
  }

  Reader reader_;
  std::vector<std::pair<std::string, Value>> members_;  // open objects
  std::vector<Value> items_;                            // open arrays
};

}  // namespace

Result<Value> Parse(std::string_view text) { return Parser(text).Run(); }

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64-bit offset basis
  for (char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

std::string FingerprintHex(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

Result<uint64_t> ParseFingerprintHex(std::string_view hex) {
  uint64_t fp = 0;
  const auto [ptr, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), fp, 16);
  // from_chars takes no sign, prefix or whitespace; the length check pins
  // the digit count.
  if (hex.size() != 16 || ec != std::errc() || ptr != hex.data() + hex.size()) {
    return Status::InvalidArgument("fingerprint '" + std::string(hex) +
                                   "' is not 16 hex digits");
  }
  return fp;
}

bool IsIntegerIn(double d, int64_t lo, int64_t hi) {
  // static_cast<double>(hi) + 1 is exact or rounds to the same power of two
  // as hi + 1 (2^63 for INT64_MAX), so `<` keeps the cast below defined.
  return d >= static_cast<double>(lo) && d < static_cast<double>(hi) + 1.0 &&
         d == std::trunc(d);
}

Status MissingOrMistyped(std::string_view key, const char* want) {
  const bool vowel = want[0] == 'a' || want[0] == 'o';
  return Status::InvalidArgument("json: field '" + std::string(key) +
                                 "' missing or not " + (vowel ? "an " : "a ") +
                                 want);
}

namespace {
template <typename Int>
Status ToIntegerImpl(std::string_view key, double d, Int* out) {
  constexpr int64_t lo = std::numeric_limits<Int>::min();
  constexpr int64_t hi = std::numeric_limits<Int>::max();
  if (!IsIntegerIn(d, lo, hi)) {
    return Status::InvalidArgument("json: field '" + std::string(key) +
                                   "' is not an integer in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  *out = static_cast<Int>(d);
  return Status::Ok();
}

template <typename Int>
Status ReadInteger(const Value& obj, std::string_view key, Int* out) {
  const Value* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) return MissingOrMistyped(key, "number");
  return ToIntegerImpl(key, v->AsDouble(), out);
}
}  // namespace

Status ToInteger(std::string_view key, double d, int* out) {
  return ToIntegerImpl(key, d, out);
}

Status ToInteger(std::string_view key, double d, int64_t* out) {
  return ToIntegerImpl(key, d, out);
}

Status ReadBool(const Value& obj, std::string_view key, bool* out) {
  const Value* v = obj.Find(key);
  if (v == nullptr || !v->is_bool()) return MissingOrMistyped(key, "bool");
  *out = v->AsBool();
  return Status::Ok();
}

Status ReadInt(const Value& obj, std::string_view key, int* out) {
  return ReadInteger(obj, key, out);
}

Status ReadInt64(const Value& obj, std::string_view key, int64_t* out) {
  return ReadInteger(obj, key, out);
}

Status ReadDouble(const Value& obj, std::string_view key, double* out) {
  const Value* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) return MissingOrMistyped(key, "number");
  *out = v->AsDouble();
  return Status::Ok();
}

Status ReadString(const Value& obj, std::string_view key, std::string* out) {
  const Value* v = obj.Find(key);
  if (v == nullptr || !v->is_string()) return MissingOrMistyped(key, "string");
  *out = v->AsString();
  return Status::Ok();
}

}  // namespace harmony::json
