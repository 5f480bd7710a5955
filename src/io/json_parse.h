#ifndef TSG_IO_JSON_PARSE_H_
#define TSG_IO_JSON_PARSE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"

namespace tsg::io {

/// Parsed JSON document node. The reader half of the daemon line protocol
/// (DESIGN.md §11): tsg_serve parses one request object per line and tsg_client
/// parses one response object per line, both through this class. The grid
/// reads its per-cell checkpoints (one cell object each, about half a kilobyte)
/// through it too. The parser optimizes for such small documents, not bulk
/// data.
///
/// Strictness: the full RFC 8259 value grammar (null/bool/number/string with
/// escapes incl. \uXXXX surrogate pairs/array/object), a nesting-depth cap, a
/// rejection of trailing non-whitespace, and no extensions (no comments, no
/// trailing commas, no NaN/Inf literals). Duplicate object keys are kept in
/// order; Find returns the first.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one complete JSON value (plus surrounding whitespace) from `text`.
  /// InvalidArgument on any syntax error, with a byte offset in the message.
  static StatusOr<JsonValue> Parse(const std::string& text);

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Value accessors; each returns the neutral default when the kind does not
  /// match (protocol code uses the Get* lookups below, which also handle
  /// absence, so a kind mismatch is not worth an abort).
  bool bool_value() const { return kind_ == Kind::kBool && bool_; }
  double number_value() const { return kind_ == Kind::kNumber ? number_ : 0.0; }
  /// The number as an int64 when it is integral and representable; nullopt for
  /// any other number and for every other kind.
  std::optional<int64_t> int_value() const;
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return items_; }
  /// Object members in document order.
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return members_;
  }

  /// First member named `key`, or nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Typed object lookups with defaults: the member must exist AND have the
  /// matching kind, otherwise `fallback` is returned. GetInt additionally
  /// requires the number to be integral and representable in int64.
  std::string GetString(const std::string& key, const std::string& fallback) const;
  double GetNumber(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace tsg::io

#endif  // TSG_IO_JSON_PARSE_H_
