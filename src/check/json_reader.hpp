#pragma once
// Minimal JSON reader shared by the checker's file formats (counterexample
// artifacts, exploration frontiers).
//
// The schemas this reads are produced by campaign::Json, so the reader
// supports exactly that dialect: insertion-ordered objects, plain ASCII
// strings, integers for every schema-defined field (durations are ns).
// Doubles appear only inside embedded metrics snapshots (the flight
// recorder in canely-check-2 artifacts carries obs gauge values); they
// parse to kNumber and, because the emitter formats shortest-round-trip,
// re-rendering one through campaign::Json::number reproduces its exact
// bytes.  Unknown fields are preserved in the value tree and simply
// ignored by callers, which is what keeps the formats forward-extensible.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/json.hpp"

namespace canely::check::jsonin {

/// A parsed JSON value.  Integers are kept as int64; non-integer numbers
/// as double.
struct Value {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kNumber,
    kString,
    kArray,
    kObject
  };
  Kind kind{Kind::kNull};
  bool b{false};
  std::int64_t i{0};
  double d{0};
  std::string s;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parse `text` completely; throws std::runtime_error (message prefixed
/// with `what`) on syntax errors, trailing input, or containers nested
/// more than 64 deep.
[[nodiscard]] Value parse(const std::string& text, const std::string& what);

/// Fetch a mandatory field of the given kind; throws std::runtime_error
/// when missing or mistyped.
[[nodiscard]] const Value& require(const Value& obj, const std::string& key,
                                   Value::Kind kind, const std::string& what);

[[nodiscard]] std::int64_t get_int(const Value& obj, const std::string& key,
                                   const std::string& what);
[[nodiscard]] bool get_bool(const Value& obj, const std::string& key,
                            const std::string& what);

/// Read a whole file; throws std::runtime_error when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path,
                                    const std::string& what);

/// Rebuild a writable campaign::Json tree from a parsed value — the
/// bridge that lets an embedded sub-document (e.g. the flight recorder's
/// metrics snapshot) be re-emitted verbatim into a new artifact.
[[nodiscard]] campaign::Json to_json(const Value& v);

}  // namespace canely::check::jsonin
