#include "core/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace lumen::core {

namespace {

struct Parser {
  std::string_view text;
  size_t pos = 0;

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else if (c == '#') {  // comment to end of line (template files)
        while (!at_end() && text[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
  }

  Error err(const std::string& what) const {
    size_t line = 1, col = 1;
    for (size_t i = 0; i < pos && i < text.size(); ++i) {
      if (text[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Error::make("json", what + " at line " + std::to_string(line) +
                                   ", column " + std::to_string(col));
  }

  Result<Json> parse_value() {
    skip_ws();
    if (at_end()) return err("unexpected end of input");
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"' || c == '\'') return parse_string();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    return parse_word();
  }

  Result<Json> parse_word() {
    size_t start = pos;
    while (!at_end() && (std::isalpha(static_cast<unsigned char>(peek())) != 0)) {
      ++pos;
    }
    const std::string_view w = text.substr(start, pos - start);
    if (w == "true" || w == "True") return Json::boolean(true);
    if (w == "false" || w == "False") return Json::boolean(false);
    if (w == "null" || w == "None") return Json::null();
    pos = start;
    return err("unexpected token");
  }

  Result<Json> parse_number() {
    size_t start = pos;
    if (peek() == '-') ++pos;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) != 0 ||
                         peek() == '.' || peek() == 'e' || peek() == 'E' ||
                         peek() == '+' || peek() == '-')) {
      ++pos;
    }
    const std::string s(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str()) return err("bad number");
    return Json::number(v);
  }

  Result<Json> parse_string() {
    const char quote = peek();
    ++pos;
    std::string out;
    while (!at_end() && peek() != quote) {
      char c = peek();
      if (c == '\\') {
        ++pos;
        if (at_end()) return err("bad escape");
        const char e = peek();
        switch (e) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case '\\': out.push_back('\\'); break;
          case '"': out.push_back('"'); break;
          case '\'': out.push_back('\''); break;
          case '/': out.push_back('/'); break;
          default: return err("unsupported escape");
        }
        ++pos;
      } else {
        out.push_back(c);
        ++pos;
      }
    }
    if (at_end()) return err("unterminated string");
    ++pos;  // closing quote
    return Json::string(std::move(out));
  }

  Result<Json> parse_array() {
    ++pos;  // '['
    Json arr = Json::array();
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos;
      return arr;
    }
    for (;;) {
      Result<Json> item = parse_value();
      if (!item.ok()) return item;
      arr.push_back(std::move(item).value());
      skip_ws();
      if (at_end()) return err("unterminated array");
      if (peek() == ',') {
        ++pos;
        skip_ws();
        if (!at_end() && peek() == ']') {  // trailing comma
          ++pos;
          return arr;
        }
        continue;
      }
      if (peek() == ']') {
        ++pos;
        return arr;
      }
      return err("expected ',' or ']'");
    }
  }

  Result<Json> parse_object() {
    ++pos;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos;
      return obj;
    }
    for (;;) {
      skip_ws();
      if (at_end() || (peek() != '"' && peek() != '\'')) {
        return err("expected string key");
      }
      Result<Json> key = parse_string();
      if (!key.ok()) return key;
      skip_ws();
      if (at_end() || (peek() != ':' && peek() != '=')) return err("expected ':'");
      ++pos;
      Result<Json> value = parse_value();
      if (!value.ok()) return value;
      obj.set(key.value().as_string(), std::move(value).value());
      skip_ws();
      if (at_end()) return err("unterminated object");
      if (peek() == ',') {
        ++pos;
        skip_ws();
        if (!at_end() && peek() == '}') {  // trailing comma
          ++pos;
          return obj;
        }
        continue;
      }
      if (peek() == '}') {
        ++pos;
        return obj;
      }
      return err("expected ',' or '}'");
    }
  }
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

Result<Json> Json::parse(std::string_view text) {
  Parser p{text};
  Result<Json> v = p.parse_value();
  if (!v.ok()) return v;
  p.skip_ws();
  if (!p.at_end()) return p.err("trailing content");
  return v;
}

const Json* Json::get(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Json::get_string(std::string_view key, const std::string& dflt) const {
  const Json* j = get(key);
  return (j != nullptr && j->is_string()) ? j->as_string() : dflt;
}

double Json::get_number(std::string_view key, double dflt) const {
  const Json* j = get(key);
  return (j != nullptr && j->is_number()) ? j->as_number() : dflt;
}

int64_t Json::get_int(std::string_view key, int64_t dflt) const {
  const Json* j = get(key);
  return (j != nullptr && j->is_number()) ? j->as_int() : dflt;
}

bool Json::get_bool(std::string_view key, bool dflt) const {
  const Json* j = get(key);
  return (j != nullptr && j->is_bool()) ? j->as_bool() : dflt;
}

std::vector<std::string> Json::get_string_list(std::string_view key) const {
  std::vector<std::string> out;
  const Json* j = get(key);
  if (j == nullptr) return out;
  if (j->is_string()) {
    out.push_back(j->as_string());
    return out;
  }
  if (j->is_array()) {
    for (const Json& item : j->items()) {
      if (item.is_string()) out.push_back(item.as_string());
    }
  }
  return out;
}

std::vector<double> Json::get_number_list(std::string_view key) const {
  std::vector<double> out;
  const Json* j = get(key);
  if (j == nullptr || !j->is_array()) return out;
  for (const Json& item : j->items()) {
    if (item.is_number()) out.push_back(item.as_number());
  }
  return out;
}

void Json::set(std::string key, Json value) {
  type_ = Type::kObject;
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
}

std::string Json::dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull: out = "null"; break;
    case Type::kBool: out = bool_ ? "true" : "false"; break;
    case Type::kNumber: {
      char buf[32];
      if (!std::isfinite(num_)) {
        // JSON has no Inf/NaN literal; serialize as null (standard practice).
        out = "null";
        break;
      }
      if (num_ == std::floor(num_) && std::fabs(num_) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(num_));
      } else {
        std::snprintf(buf, sizeof(buf), "%.10g", num_);
      }
      out = buf;
      break;
    }
    case Type::kString: dump_string(str_, out); break;
    case Type::kArray: {
      out = '[';
      for (size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out += ",";
        out += arr_[i].dump();
      }
      out += "]";
      break;
    }
    case Type::kObject: {
      out = '{';
      for (size_t i = 0; i < obj_.size(); ++i) {
        if (i != 0) out += ",";
        dump_string(obj_[i].first, out);
        out += ":";
        out += obj_[i].second.dump();
      }
      out += "}";
      break;
    }
  }
  return out;
}

}  // namespace lumen::core
