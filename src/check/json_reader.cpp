#include "check/json_reader.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace canely::check::jsonin {
namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& what)
      : text_{text}, what_{what} {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(what_ + ": " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Each level recurses, so a hostile file of nothing but brackets
        // would overflow the stack without this cap.
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        Value v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.s = string();
        return v;
      }
      case 't': {
        if (!consume("true")) fail("bad literal");
        Value v;
        v.kind = Value::Kind::kBool;
        v.b = true;
        return v;
      }
      case 'f': {
        if (!consume("false")) fail("bad literal");
        Value v;
        v.kind = Value::Kind::kBool;
        return v;
      }
      case 'n': {
        if (!consume("null")) fail("bad literal");
        return Value{};
      }
      default:
        return number();
    }
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            // The emitter never produces \u escapes for the schemas'
            // ASCII content; accept and keep the raw sequence.
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            out += "\\u" + text_.substr(pos_, 4);
            pos_ += 4;
            break;
          }
          default:
            fail("bad escape");
        }
        continue;
      }
      out += c;
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("bad number");
    }
    bool real = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      real = true;
      ++pos_;
      const std::size_t frac = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
      if (pos_ == frac) fail("bad number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      real = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const std::size_t exp = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
      if (pos_ == exp) fail("bad number");
    }
    Value v;
    const std::string token = text_.substr(start, pos_ - start);
    if (real) {
      v.kind = Value::Kind::kNumber;
      v.d = std::strtod(token.c_str(), nullptr);
    } else {
      v.kind = Value::Kind::kInt;
      v.i = std::strtoll(token.c_str(), nullptr, 10);
    }
    return v;
  }

  /// The container nesting limit lint/json_mini.hpp also uses; every
  /// schema read here nests far less deeply.
  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  const std::string& what_;
  std::size_t pos_{0};
  int depth_{0};  ///< containers open at pos_
};

}  // namespace

Value parse(const std::string& text, const std::string& what) {
  return Parser{text, what}.parse();
}

const Value& require(const Value& obj, const std::string& key,
                     Value::Kind kind, const std::string& what) {
  const Value* v = obj.find(key);
  if (v == nullptr || v->kind != kind) {
    throw std::runtime_error(what + ": missing or mistyped field '" + key +
                             "'");
  }
  return *v;
}

std::int64_t get_int(const Value& obj, const std::string& key,
                     const std::string& what) {
  return require(obj, key, Value::Kind::kInt, what).i;
}

bool get_bool(const Value& obj, const std::string& key,
              const std::string& what) {
  return require(obj, key, Value::Kind::kBool, what).b;
}

campaign::Json to_json(const Value& v) {
  switch (v.kind) {
    case Value::Kind::kNull:
      return campaign::Json{};
    case Value::Kind::kBool:
      return campaign::Json::boolean(v.b);
    case Value::Kind::kInt:
      return campaign::Json::integer(v.i);
    case Value::Kind::kNumber:
      return campaign::Json::number(v.d);
    case Value::Kind::kString:
      return campaign::Json::string(v.s);
    case Value::Kind::kArray: {
      campaign::Json arr = campaign::Json::array();
      for (const Value& e : v.array) arr.push(to_json(e));
      return arr;
    }
    case Value::Kind::kObject: {
      campaign::Json obj = campaign::Json::object();
      for (const auto& [key, val] : v.object) obj.set(key, to_json(val));
      return obj;
    }
  }
  return campaign::Json{};
}

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error(what + ": cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace canely::check::jsonin
