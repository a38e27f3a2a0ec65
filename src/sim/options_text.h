// Text form of run options: one key list per options struct.
//
// An options struct names every field once, with its key and unit, in a
// `Visit` member:
//
//   template <typename V>
//   void Visit(V&& v) {
//     v("nodes", num_nodes);
//     v("span_ms", span, kMillisecond);     // text in ms, stored in ns
//     v("trace", kind, kArrivalKindNames);  // an enum, by its names
//     link.Visit(v);                        // a nested struct's own keys
//   }
//
// That list is the only description of the struct's options. ReadOptions
// fills a struct from a KeyValues map (fvsim flags, scenario files, capture
// headers); OptionsText writes it as "key=value" lines (capture headers,
// snapshot fingerprints, `fvsim list`).
//
// Values: an integer field with a unit is read in that unit and rounded to
// the nearest stored unit (ns or byte); one without is read exactly.
// Doubles are written as the shortest text that reads back exactly. Fault
// lists read "n@ms,..." (crashes, restarts) and "a-b@ms-ms,..." (cuts).

#ifndef FRAGVISOR_SRC_SIM_OPTIONS_TEXT_H_
#define FRAGVISOR_SRC_SIM_OPTIONS_TEXT_H_

#include <array>
#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/fault_plan.h"

namespace fragvisor {

namespace options_text {

std::string FormatDouble(double v);
// `text` as a number times `unit`, rounded to the nearest integer.
bool ParseScaled(std::string_view text, int64_t unit, int64_t* out);
std::string FormatList(const std::vector<FaultSchedule::NodeEvent>& events);
std::string FormatList(const std::vector<FaultSchedule::Cut>& cuts);
bool ParseList(std::string_view text, std::vector<FaultSchedule::NodeEvent>* events);
bool ParseList(std::string_view text, std::vector<FaultSchedule::Cut>* cuts);

// The whole of `text` as one number; `*out` is untouched on failure.
template <typename T>
bool FromChars(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace options_text

// The text of one field value. `unit` is how many stored units (ns, bytes)
// one unit of text stands for: kMillisecond for a key in ms.
template <typename T>
std::string FormatField(const T& value, int64_t unit = 1) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return unit == 1 ? std::to_string(value)
                     : options_text::FormatDouble(static_cast<double>(value) /
                                                  static_cast<double>(unit));
  } else if constexpr (std::is_floating_point_v<T>) {
    return options_text::FormatDouble(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else {
    return options_text::FormatList(value);
  }
}

template <typename E, size_t N>
  requires std::is_enum_v<E>
std::string FormatField(const E& value, const std::array<const char*, N>& names) {
  return names[static_cast<size_t>(value)];
}

// Parses `text` into `*value`; false (and `*value` untouched) if malformed.
template <typename T>
bool ParseField(std::string_view text, T* value, int64_t unit = 1) {
  if constexpr (std::is_same_v<T, bool>) {
    if (text != "true" && text != "1" && text != "false" && text != "0") {
      return false;
    }
    *value = text == "true" || text == "1";
    return true;
  } else if constexpr (std::is_integral_v<T>) {
    if (unit == 1) {
      return options_text::FromChars(text, value);
    }
    int64_t scaled = 0;
    if (!options_text::ParseScaled(text, unit, &scaled) || !std::in_range<T>(scaled)) {
      return false;
    }
    *value = static_cast<T>(scaled);
    return true;
  } else if constexpr (std::is_floating_point_v<T>) {
    return options_text::FromChars(text, value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    *value = std::string(text);
    return true;
  } else {
    return options_text::ParseList(text, value);
  }
}

template <typename E, size_t N>
  requires std::is_enum_v<E>
bool ParseField(std::string_view text, E* value, const std::array<const char*, N>& names) {
  for (size_t i = 0; i < N; ++i) {
    if (text == names[i]) {
      *value = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

// A key/value map that remembers which keys were read and keeps the first
// malformed value, so one Check() refuses both typos and bad values.
class KeyValues {
 public:
  // Parses "key=value" lines (OptionsText's format); empty lines are skipped.
  static bool FromText(std::string_view text, KeyValues* out, std::string* error);

  void Set(std::string key, std::string value) { values_[std::move(key)] = {std::move(value)}; }
  // Does not mark `key` read.
  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  // Reads `key` into `field` if present, marking it read; a malformed value
  // leaves `field` as it was and is latched for Check().
  template <typename T, typename... How>
  void Read(const std::string& key, T& field, const How&... how) {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return;
    }
    it->second.read = true;
    if (!ParseField(it->second.text, &field, how...) && error_.empty()) {
      error_ = key + ": malformed value '" + it->second.text + "'";
    }
  }
  template <typename T>
  T Get(const std::string& key, T fallback) {
    Read(key, fallback);
    return fallback;
  }

  // False, with the reason in `error`, on the first malformed value or else
  // on the first key that was never read.
  bool Check(std::string* error) const;

 private:
  struct Value {
    std::string text;
    bool read = false;
  };
  std::map<std::string, Value> values_;
  std::string error_;
};

// Fills `opts` from `kv`; fields whose key is absent keep their value.
template <typename Options>
void ReadOptions(KeyValues& kv, Options& opts) {
  opts.Visit([&kv](const char* key, auto& field, const auto&... how) {
    kv.Read(key, field, how...);
  });
}

// Every field of `opts` as one "key=value" line, in Visit order. (A copy:
// Visit hands out mutable fields.)
template <typename Options>
std::string OptionsText(Options opts) {
  std::string out;
  opts.Visit([&out](const char* key, const auto& field, const auto&... how) {
    out += key;
    out += '=';
    out += FormatField(field, how...);
    out += '\n';
  });
  return out;
}

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_OPTIONS_TEXT_H_
