// Minimal JSON reader shared by the human-readable artefacts: the
// empirical tuning cache (io/serialize.cpp) and the serving engine plan
// (serving/plan.cpp). Objects, arrays, strings, numbers, booleans, null
// — enough for the documents the writers emit plus hand-edited
// variants; anything malformed, or nested past a fixed depth, throws
// venom::Error with the byte offset so a corrupt file is diagnosable.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace venom::io {

/// One parsed JSON value (a small tagged union; objects keep insertion
/// order and allow linear get() — the documents are tiny).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Parses `text` (read from `path`, named in error messages) into a
/// JsonValue tree. Throws venom::Error on malformed input.
JsonValue parse_json(const std::string& text, const std::string& path);

/// Required numeric field of a JSON object, as a size (rejects negatives
/// and non-integers) — the shape/config fields of a cache entry.
std::size_t json_size_field(const JsonValue& obj, const char* key,
                            const std::string& path);

/// Required numeric field of a JSON object, as a double.
double json_double_field(const JsonValue& obj, const char* key,
                         const std::string& path);

/// Required string field of a JSON object.
const std::string& json_string_field(const JsonValue& obj, const char* key,
                                     const std::string& path);

/// Appends `s` to `out` with JSON string escaping: quotes, backslashes,
/// and every byte below 0x20 (\n \t \r by name, the others as \u00XX),
/// which is what parse_json reads back.
void json_escape_to(std::string& out, const std::string& s);

/// `x`, for a writer to print; throws venom::Error naming `key` when it
/// is inf or nan, which JSON cannot hold.
double json_finite(double x, const char* key);

}  // namespace venom::io
