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

namespace {

/// Recursive-descent parser over the raw byte range. Depth-capped so hostile
/// input can't blow the stack of a daemon thread.
class Parser {
 public:
  explicit Parser(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  Result<Value> Run() {
    SkipWs();
    Value v;
    HARMONY_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipWs();
    if (p_ != end_) {
      return Status::InvalidArgument(Context("trailing characters"));
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  std::string Context(const std::string& what) const {
    return "json: " + what + " at offset " + std::to_string(p_ - begin_);
  }

  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (static_cast<size_t>(end_ - p_) >= w.size() &&
        std::string_view(p_, w.size()) == w) {
      p_ += w.size();
      return true;
    }
    return false;
  }

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Status::InvalidArgument(Context("nesting too deep"));
    if (p_ == end_) return Status::InvalidArgument(Context("unexpected end"));
    switch (*p_) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        std::string s;
        HARMONY_RETURN_IF_ERROR(ParseString(&s));
        *out = Value::Str(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (ConsumeWord("true")) {
          *out = Value::Bool(true);
          return Status::Ok();
        }
        return Status::InvalidArgument(Context("bad literal"));
      case 'f':
        if (ConsumeWord("false")) {
          *out = Value::Bool(false);
          return Status::Ok();
        }
        return Status::InvalidArgument(Context("bad literal"));
      case 'n':
        if (ConsumeWord("null")) {
          *out = Value::Null();
          return Status::Ok();
        }
        return Status::InvalidArgument(Context("bad literal"));
      default:
        return ParseNumber(out);
    }
  }

  // Objects and arrays collect their entries on a stack shared by the whole
  // parse, then move them into a vector sized exactly once: no regrowth per
  // member and no over-reserved capacity left in the document.
  Status ParseObject(Value* out, int depth) {
    ++p_;  // '{'
    *out = Value::Object();
    SkipWs();
    if (Consume('}')) return Status::Ok();
    const size_t base = members_.size();
    for (;;) {
      SkipWs();
      std::string key;
      HARMONY_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Status::InvalidArgument(Context("expected ':'"));
      SkipWs();
      Value v;
      HARMONY_RETURN_IF_ERROR(ParseValue(&v, depth + 1));
      members_.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Status::InvalidArgument(Context("expected ',' or '}'"));
    }
    out->Reserve(members_.size() - base);
    for (size_t i = base; i < members_.size(); ++i) {
      out->Set(std::move(members_[i].first), std::move(members_[i].second));
    }
    members_.resize(base);
    return Status::Ok();
  }

  Status ParseArray(Value* out, int depth) {
    ++p_;  // '['
    *out = Value::Array();
    SkipWs();
    if (Consume(']')) return Status::Ok();
    const size_t base = items_.size();
    for (;;) {
      SkipWs();
      Value v;
      HARMONY_RETURN_IF_ERROR(ParseValue(&v, depth + 1));
      items_.push_back(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Status::InvalidArgument(Context("expected ',' or ']'"));
    }
    out->Reserve(items_.size() - base);
    for (size_t i = base; i < items_.size(); ++i) {
      out->Append(std::move(items_[i]));
    }
    items_.resize(base);
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Status::InvalidArgument(Context("expected string"));
    out->clear();
    for (;;) {
      // Copy the run up to the next quote or escape in one append.
      const char* run = p_;
      while (p_ != end_ && *p_ != '"' && *p_ != '\\') ++p_;
      out->append(run, p_);
      if (p_ == end_) break;
      if (*p_++ == '"') return Status::Ok();
      if (p_ == end_) break;
      const char e = *p_++;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (end_ - p_ < 4) {
            return Status::InvalidArgument(Context("truncated \\u escape"));
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Status::InvalidArgument(Context("bad \\u escape"));
          }
          if (code > 0x7f) {
            return Status::InvalidArgument(
                Context("non-ASCII \\u escape unsupported"));
          }
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Status::InvalidArgument(Context("bad escape"));
      }
    }
    return Status::InvalidArgument(Context("unterminated string"));
  }

  Status ParseNumber(Value* out) {
    const char* const start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    auto eat_digits = [&]() {
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') {
        ++p_;
        digits = true;
      }
    };
    eat_digits();
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      eat_digits();
    }
    if (digits && p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
      eat_digits();
    }
    if (!digits) return Status::InvalidArgument(Context("expected value"));
    double d = 0;
    const auto [ptr, ec] = std::from_chars(start, p_, d);
    if (ec != std::errc() || ptr != p_) {
      // from_chars refuses a leading '+' and reports underflow or overflow
      // without a value, where strtod accepts the token and rounds (to 0 or
      // inf). Both round correctly, so the slow path changes no value.
      const std::string token(start, p_);
      char* end = nullptr;
      d = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) {
        return Status::InvalidArgument(Context("bad number"));
      }
    }
    *out = Value::Number(d);
    return Status::Ok();
  }

  const char* const begin_;
  const char* p_;
  const char* const end_;
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

namespace {
Status MissingOrMistyped(std::string_view key, const char* want) {
  return Status::InvalidArgument("json: field '" + std::string(key) +
                                 "' missing or not a " + want);
}
}  // namespace

Status ReadBool(const Value& obj, std::string_view key, bool* out) {
  const Value* v = obj.Find(key);
  if (v == nullptr || !v->is_bool()) return MissingOrMistyped(key, "bool");
  *out = v->AsBool();
  return Status::Ok();
}

namespace {
template <typename Int>
Status ReadInteger(const Value& obj, std::string_view key, Int* out) {
  const Value* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) return MissingOrMistyped(key, "number");
  constexpr int64_t lo = std::numeric_limits<Int>::min();
  constexpr int64_t hi = std::numeric_limits<Int>::max();
  if (!IsIntegerIn(v->AsDouble(), lo, hi)) {
    return Status::InvalidArgument("json: field '" + std::string(key) +
                                   "' is not an integer in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  *out = static_cast<Int>(v->AsDouble());
  return Status::Ok();
}
}  // namespace

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
