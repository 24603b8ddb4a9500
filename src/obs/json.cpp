#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>
#include <vector>

#include "common/check.hpp"

namespace tspopt::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::pre_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    TSPOPT_CHECK_MSG(stack_.back() == 'a',
                     "JSON object members need a key() before each value");
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_ += '{';
  stack_.push_back('o');
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  TSPOPT_CHECK_MSG(!stack_.empty() && stack_.back() == 'o' && !after_key_,
                   "unbalanced end_object");
  stack_.pop_back();
  has_items_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_ += '[';
  stack_.push_back('a');
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  TSPOPT_CHECK_MSG(!stack_.empty() && stack_.back() == 'a' && !after_key_,
                   "unbalanced end_array");
  stack_.pop_back();
  has_items_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  TSPOPT_CHECK_MSG(!stack_.empty() && stack_.back() == 'o' && !after_key_,
                   "key() is only valid directly inside an object");
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  pre_value();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string_view(v));
}

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  pre_value();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  // to_chars with a precision gives printf's "%.12g" bytes (the standard
  // defines it so), without printf's format parsing and locale lookup.
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general, 12);
  TSPOPT_CHECK(ec == std::errc());
  out_.append(buf, end);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  pre_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  pre_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  pre_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view fragment) {
  pre_value();
  out_ += fragment;
  return *this;
}

const JsonValue* JsonValue::find(std::string_view k) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [key, val] : object) {
    if (key == k) return &val;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view k) const {
  const JsonValue* v = find(k);
  TSPOPT_CHECK_MSG(v != nullptr, "JSON object has no member \"" << k << '"');
  return *v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) { size_arrays(); }

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    TSPOPT_CHECK_MSG(pos_ == text_.size(),
                     "trailing characters after JSON document at byte "
                         << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    TSPOPT_CHECK_MSG(pos_ < text_.size(),
                     "unexpected end of JSON at byte " << pos_);
    return text_[pos_];
  }

  void expect(char c) {
    TSPOPT_CHECK_MSG(peek() == c, "expected '" << c << "' at byte " << pos_
                                               << ", got '" << peek() << "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't': {
        TSPOPT_CHECK_MSG(consume_literal("true"), "bad literal at " << pos_);
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        TSPOPT_CHECK_MSG(consume_literal("false"), "bad literal at " << pos_);
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        TSPOPT_CHECK_MSG(consume_literal("null"), "bad literal at " << pos_);
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    const std::size_t size =
        next_array_ < array_sizes_.size() ? array_sizes_[next_array_++] : 0;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    v.array.reserve(size);
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        TSPOPT_CHECK_MSG(static_cast<unsigned char>(c) >= 0x20,
                         "unescaped control character in string at byte "
                             << pos_ - 1);
        out += c;
        continue;
      }
      char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          TSPOPT_CHECK_MSG(pos_ + 4 <= text_.size(),
                           "truncated \\u escape at byte " << pos_);
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else TSPOPT_CHECK_MSG(false, "bad \\u escape at byte " << pos_);
          }
          // UTF-8 encode the code point (BMP only — the emitter never
          // produces surrogate pairs; raw UTF-8 passes through unescaped).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          TSPOPT_CHECK_MSG(false, "bad escape '\\" << esc << "' at byte "
                                                   << pos_ - 1);
      }
    }
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    TSPOPT_CHECK_MSG(pos_ > start, "expected a JSON value at byte " << start);
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double parsed = std::strtod(token.c_str(), &end);
    TSPOPT_CHECK_MSG(end != nullptr && *end == '\0',
                     "malformed number \"" << token << "\" at byte " << start);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = parsed;
    return v;
  }

  // One linear scan ahead of the parse: the element count of every array,
  // in the order parse_array meets them, so each array is allocated once
  // at its final size. Growing by doubling instead would leave a chain of
  // freed buffers ~1.6x the array behind (a 10k-point instance or a 10k-
  // city tour is ~1 MB of JsonValues). A count is capped at what the
  // array's bytes could hold, so malformed text cannot reserve more than
  // well-formed text of the same length; the parse proper still rejects
  // it.
  void size_arrays() {
    struct Open {
      std::size_t at;     // index into array_sizes_, or kObject
      std::size_t begin;  // byte offset of the bracket
    };
    constexpr std::size_t kObject = ~std::size_t{0};
    std::vector<Open> open;
    bool in_string = false;
    for (std::size_t p = 0; p < text_.size(); ++p) {
      const char c = text_[p];
      if (in_string) {
        if (c == '\\') {
          ++p;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '[') {
        open.push_back({array_sizes_.size(), p});
        array_sizes_.push_back(1);
      } else if (c == '{') {
        open.push_back({kObject, p});
      } else if (c == ',' && !open.empty() && open.back().at != kObject) {
        ++array_sizes_[open.back().at];
      } else if ((c == ']' || c == '}') && !open.empty()) {
        const Open o = open.back();
        open.pop_back();
        if (o.at != kObject) {
          array_sizes_[o.at] =
              std::min(array_sizes_[o.at], (p - o.begin) / 2 + 1);
        }
      }
    }
    for (const Open& o : open) {  // unclosed: capped by the bytes left
      if (o.at != kObject) {
        array_sizes_[o.at] =
            std::min(array_sizes_[o.at], (text_.size() - o.begin) / 2 + 1);
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> array_sizes_;
  std::size_t next_array_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

void write_json_value(JsonWriter& w, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      w.null_value();
      break;
    case JsonValue::Kind::kBool:
      w.value(value.boolean);
      break;
    case JsonValue::Kind::kNumber:
      w.value(value.number);
      break;
    case JsonValue::Kind::kString:
      w.value(value.string);
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& item : value.array) write_json_value(w, item);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : value.object) {
        w.key(key);
        write_json_value(w, member);
      }
      w.end_object();
      break;
  }
}

}  // namespace tspopt::obs
