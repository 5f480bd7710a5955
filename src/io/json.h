#ifndef TSG_IO_JSON_H_
#define TSG_IO_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tsg::io {

/// Escapes a string for use inside a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& s);

/// Minimal streaming JSON writer for bench artifacts and the daemon line
/// protocol. What is read back — protocol messages and the grid's per-cell
/// checkpoints — is parsed with io::JsonValue (json_parse.h).
/// Commas are inserted automatically; doubles are printed with %.17g so the same
/// double always produces the same bytes (byte-identical artifacts across runs).
/// Non-finite doubles are emitted as null, since JSON has no NaN/Inf literals.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Object key; must be followed by exactly one value (or Begin*).
  JsonWriter& Key(const std::string& key);
  JsonWriter& String(const std::string& value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// The document so far; call after the outermost End*.
  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  /// One entry per open container: true while the next element needs a leading
  /// comma. Keys toggle a pending flag so their value skips the comma logic.
  std::vector<bool> needs_comma_;
  bool after_key_ = false;
};

}  // namespace tsg::io

#endif  // TSG_IO_JSON_H_
