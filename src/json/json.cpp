#include "json/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace ndc::json {

Value Value::Bool(bool v) {
  Value x;
  x.kind = Kind::kBool;
  x.b = v;
  return x;
}

Value Value::Int(std::uint64_t v) {
  Value x;
  x.kind = Kind::kInt;
  x.u64 = v;
  return x;
}

Value Value::Double(double v) {
  Value x;
  x.kind = Kind::kDouble;
  x.num = v;
  return x;
}

Value Value::Str(std::string v) {
  Value x;
  x.kind = Kind::kString;
  x.str = std::move(v);
  return x;
}

Value Value::Object() {
  Value x;
  x.kind = Kind::kObject;
  return x;
}

Value Value::Array() {
  Value x;
  x.kind = Kind::kArray;
  return x;
}

const Value* Value::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

std::uint64_t Value::AsU64(std::uint64_t fallback) const {
  if (kind == Kind::kInt) return u64;
  // Out-of-range doubles (and NaN) take the fallback: converting them is
  // undefined behaviour.
  if (kind == Kind::kDouble && num >= 0 && num < 0x1p64) {
    return static_cast<std::uint64_t>(num);
  }
  return fallback;
}

double Value::AsDouble(double fallback) const {
  if (kind == Kind::kDouble) return num;
  if (kind == Kind::kInt) return static_cast<double>(u64);
  return fallback;
}

void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendEscaped(out, s);
  return out;
}

static void DumpTo(const Value& v, std::string& out) {
  switch (v.kind) {
    case Value::Kind::kNull: out += "null"; return;
    case Value::Kind::kBool: out += v.b ? "true" : "false"; return;
    case Value::Kind::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v.u64));
      out += buf;
      return;
    }
    case Value::Kind::kDouble: {
      if (!std::isfinite(v.num)) {  // JSON has no inf/nan; degrade to null
        out += "null";
        return;
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.num);
      out += buf;
      return;
    }
    case Value::Kind::kString:
      out += '"';
      AppendEscaped(out, v.str);
      out += '"';
      return;
    case Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, val] : v.obj) {
        if (!first) out += ',';
        first = false;
        out += '"';
        AppendEscaped(out, k);
        out += "\":";
        DumpTo(val, out);
      }
      out += '}';
      return;
    }
    case Value::Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < v.arr.size(); ++i) {
        if (i) out += ',';
        DumpTo(v.arr[i], out);
      }
      out += ']';
      return;
    }
  }
}

std::string Dump(const Value& v) {
  std::string out;
  DumpTo(v, out);
  return out;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* err) : s_(text), err_(err) {}

  bool Run(Value* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != s_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const char* what) {
    if (err_) {
      std::ostringstream os;
      os << what << " at offset " << pos_;
      *err_ = os.str();
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(Value* out) {
    if (pos_ >= s_.size()) return Fail("unexpected end of input");
    char c = s_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Bounded so that a crafted line of '[' cannot overflow the stack.
        if (depth_ == kMaxDepth) return Fail("nesting too deep");
        ++depth_;
        bool ok = c == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"': {
        out->kind = Value::Kind::kString;
        return ParseString(&out->str);
      }
      case 't':
        if (s_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          *out = Value::Bool(true);
          return true;
        }
        return Fail("bad literal");
      case 'f':
        if (s_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          *out = Value::Bool(false);
          return true;
        }
        return Fail("bad literal");
      case 'n':
        if (s_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          *out = Value::Null();
          return true;
        }
        return Fail("bad literal");
      default: return ParseNumber(out);
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return Fail("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return Fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            // AppendEscaped only emits \u00xx for control bytes and passes
            // non-ASCII through as raw UTF-8, so anything above 0x7f is not
            // ours; refuse it rather than keep a truncated low byte.
            if (code > 0x7F) return Fail("\\u escape above 0x7f");
            *out += static_cast<char>(code);
            break;
          }
          default: return Fail("bad escape");
        }
      } else {
        *out += c;
      }
    }
    return Fail("unterminated string");
  }

  // A number starts with '-' or a digit (JSON has no "+1" or ".5"). The
  // longest run of number characters must then convert in full, so "1-2",
  // "7e" and "3.0.0" are errors rather than a silently truncated prefix.
  bool ParseNumber(Value* out) {
    std::size_t start = pos_;
    if (s_[pos_] != '-' && !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      return Fail("expected value");
    }
    bool is_double = s_[pos_] == '-';  // negatives only occur for measured doubles
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
      } else if (!std::isdigit(static_cast<unsigned char>(c))) {
        break;
      }
      ++pos_;
    }
    std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    if (is_double) {
      double d = std::strtod(tok.c_str(), &end);
      if (end != tok.c_str() + tok.size() || std::isinf(d)) return Fail("malformed number");
      *out = Value::Double(d);
    } else {
      errno = 0;
      unsigned long long u = std::strtoull(tok.c_str(), &end, 10);
      if (end != tok.c_str() + tok.size() || errno == ERANGE) {
        return Fail("malformed or out-of-range integer");
      }
      *out = Value::Int(u);
    }
    return true;
  }

  bool ParseObject(Value* out) {
    if (!Consume('{')) return Fail("expected object");
    *out = Value::Object();
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      Value val;
      if (!ParseValue(&val)) return false;
      if (!out->obj.emplace(std::move(key), std::move(val)).second) {
        return Fail("duplicate key");
      }
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(Value* out) {
    if (!Consume('[')) return Fail("expected array");
    *out = Value::Array();
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      Value val;
      if (!ParseValue(&val)) return false;
      out->arr.push_back(std::move(val));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  static constexpr int kMaxDepth = 256;

  const std::string& s_;
  std::string* err_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool Parse(const std::string& text, Value* out, std::string* err) {
  return Parser(text, err).Run(out);
}

}  // namespace ndc::json
