#include "src/common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace asbase {
namespace {

const Json& NullSentinel() {
  static const Json kNull;
  return kNull;
}

// Recursive-descent parser over a string_view with explicit position.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    SkipSpace();
    AS_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 128;

  Status Fail(std::string why) const {
    return InvalidArgument("json parse error at offset " +
                           std::to_string(pos_) + ": " + std::move(why));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(char c) {
    if (!AtEnd() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (AtEnd()) {
      return Fail("unexpected end of input");
    }
    switch (Peek()) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        AS_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        if (ConsumeWord("true")) {
          return Json(true);
        }
        return Fail("bad literal");
      case 'f':
        if (ConsumeWord("false")) {
          return Json(false);
        }
        return Fail("bad literal");
      case 'n':
        if (ConsumeWord("null")) {
          return Json(nullptr);
        }
        return Fail("bad literal");
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonObject object;
    SkipSpace();
    if (Consume('}')) {
      return Json(std::move(object));
    }
    while (true) {
      SkipSpace();
      if (AtEnd() || Peek() != '"') {
        return Fail("expected object key string");
      }
      AS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) {
        return Fail("expected ':' after object key");
      }
      SkipSpace();
      AS_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      object[std::move(key)] = std::move(value);
      SkipSpace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return Json(std::move(object));
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray(int depth) {
    ++pos_;  // '['
    JsonArray array;
    SkipSpace();
    if (Consume(']')) {
      return Json(std::move(array));
    }
    while (true) {
      SkipSpace();
      AS_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      array.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return Json(std::move(array));
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      // Copy each run of plain bytes at once: a 128 KiB body string is one
      // append, not 128 Ki push_backs and the reallocations they bring.
      const size_t run_start = pos_;
      while (pos_ < text_.size() && IsPlainStringByte(text_[pos_])) {
        ++pos_;
      }
      out.append(text_.data() + run_start, pos_ - run_start);
      if (AtEnd()) {
        return Fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      // c is '\\': an escape.
      if (AtEnd()) {
        return Fail("unterminated escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          AS_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Fail("bad escape character");
      }
    }
  }

  // A byte a string holds as itself: not its end, an escape or a control
  // character.
  static bool IsPlainStringByte(char c) {
    return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      return Fail("truncated \\u escape");
    }
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    return value;
  }

  static void AppendUtf8(std::string& out, uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    bool is_double = false;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") {
      return Fail("bad number");
    }
    if (!is_double) {
      int64_t value = 0;
      auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Fall through to double for out-of-range integers.
    }
    // std::from_chars for double is available in libstdc++ 11+.
    double value = 0;
    auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      return Fail("bad number");
    }
    return Json(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void EscapeInto(std::string& out, const std::string& s) {
  out.push_back('"');
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

const Json& Json::operator[](std::string_view key) const {
  if (is_object()) {
    auto it = object_.find(std::string(key));
    if (it != object_.end()) {
      return it->second;
    }
  }
  return NullSentinel();
}

const Json& Json::operator[](size_t index) const {
  if (is_array() && index < array_.size()) {
    return array_[index];
  }
  return NullSentinel();
}

Json& Json::Set(std::string key, Json value) {
  if (type_ != Type::kObject) {
    *this = Json(JsonObject{});
  }
  object_[std::move(key)] = std::move(value);
  return *this;
}

Json& Json::Append(Json value) {
  if (type_ != Type::kArray) {
    *this = Json(JsonArray{});
  }
  array_.push_back(std::move(value));
  return *this;
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(int_);
      break;
    case Type::kDouble: {
      char buf[40];
      if (std::isfinite(double_)) {
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        out += buf;
      } else {
        out += "null";  // JSON has no Inf/NaN
      }
      break;
    }
    case Type::kString:
      EscapeInto(out, string_);
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& item : array_) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        newline(depth + 1);
        item.DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) {
        newline(depth);
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        newline(depth + 1);
        EscapeInto(out, key);
        out.push_back(':');
        if (indent > 0) {
          out.push_back(' ');
        }
        value.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) {
        newline(depth);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).Parse();
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) {
    // Allow 1 == 1.0 comparisons between numeric types.
    if (is_number() && other.is_number()) {
      return as_double() == other.as_double();
    }
    return false;
  }
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kInt:
      return int_ == other.int_;
    case Type::kDouble:
      return double_ == other.double_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

}  // namespace asbase
