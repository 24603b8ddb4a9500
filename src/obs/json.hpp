// Hand-rolled JSON support for the observability subsystem.
//
// JsonWriter produces the trace-event files and run reports (no external
// JSON dependency is available, and the needed subset is tiny); the
// matching recursive-descent parser exists so tests can assert on emitted
// documents structurally (round-trip) instead of by string comparison.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tspopt::obs {

// Escape `text` for inclusion inside a JSON string literal (quotes not
// included): ", \, and control characters become their escape sequences.
std::string json_escape(std::string_view text);

// Streaming JSON emitter. Commas and key/value separators are inserted
// automatically; the caller is responsible for balanced begin/end calls
// (TSPOPT_CHECK enforces the obvious misuses).
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Object key; must be followed by exactly one value (or container).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);
  JsonWriter& value(bool v);
  JsonWriter& value(double v);  // non-finite values are emitted as null
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int32_t v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint32_t v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& null_value();

  // Splice a pre-rendered JSON fragment in value position (used for span
  // argument values that are rendered once at record time).
  JsonWriter& raw_value(std::string_view fragment);

  const std::string& str() const { return out_; }
  // Moves the text out without a copy; the writer is spent.
  std::string take() && { return std::move(out_); }

 private:
  void pre_value();

  std::string out_;
  std::vector<char> stack_;       // 'o' = object, 'a' = array
  std::vector<bool> has_items_;   // per open container: item already emitted
  bool after_key_ = false;
};

// Parsed JSON document. Object member order is preserved (reports are
// emitted in a stable order and tests may rely on it).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  // find() that throws CheckError when the member is missing.
  const JsonValue& at(std::string_view key) const;
};

// Parse a complete JSON document; trailing non-whitespace or any syntax
// error raises CheckError with the byte offset.
JsonValue json_parse(std::string_view text);

// Re-emit a parsed value through a writer (canonical round trip: member
// order preserved, numbers via the writer's double formatting). Used to
// splice parsed fragments back into documents — journal snapshots, the
// client CLI's one-line canonical output.
void write_json_value(JsonWriter& w, const JsonValue& value);

}  // namespace tspopt::obs
