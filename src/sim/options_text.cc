#include "src/sim/options_text.h"

#include <algorithm>
#include <cmath>

namespace fragvisor {
namespace options_text {
namespace {

using NodeEvent = FaultSchedule::NodeEvent;
using Cut = FaultSchedule::Cut;

bool Scale(double v, int64_t unit, int64_t* out) {
  const double scaled = std::round(v * static_cast<double>(unit));
  if (!(std::fabs(scaled) < 9.2e18)) {  // also refuses NaN
    return false;
  }
  *out = static_cast<int64_t>(scaled);
  return true;
}

// Reads one number, or the character `c`, off the front of `text`.
template <typename T>
bool Take(std::string_view& text, T* out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  text.remove_prefix(static_cast<size_t>(ptr - text.data()));
  return ec == std::errc();
}
bool Take(std::string_view& text, char c) {
  if (text.empty() || text.front() != c) {
    return false;
  }
  text.remove_prefix(1);
  return true;
}
bool TakeMillis(std::string_view& text, TimeNs* out) {
  double ms = 0;
  return Take(text, &ms) && Scale(ms, kMillisecond, out);
}

bool ParseItem(std::string_view text, NodeEvent* e) {
  return Take(text, &e->node) && Take(text, '@') && TakeMillis(text, &e->at) && text.empty();
}
bool ParseItem(std::string_view text, Cut* c) {
  return Take(text, &c->a) && Take(text, '-') && Take(text, &c->b) && Take(text, '@') &&
         TakeMillis(text, &c->from) && Take(text, '-') && TakeMillis(text, &c->until) &&
         text.empty();
}

std::string FormatItem(const NodeEvent& e) {
  return std::to_string(e.node) + '@' + FormatField(e.at, kMillisecond);
}
std::string FormatItem(const Cut& c) {
  return std::to_string(c.a) + '-' + std::to_string(c.b) + '@' +
         FormatField(c.from, kMillisecond) + '-' + FormatField(c.until, kMillisecond);
}

// Comma-separated items; empty items are skipped.
template <typename Item>
bool ParseItems(std::string_view text, std::vector<Item>* out) {
  std::vector<Item> items;
  for (size_t pos = 0; pos <= text.size();) {
    const size_t comma = std::min(text.find(',', pos), text.size());
    if (comma > pos && !ParseItem(text.substr(pos, comma - pos), &items.emplace_back())) {
      return false;
    }
    pos = comma + 1;
  }
  *out = std::move(items);
  return true;
}

template <typename Item>
std::string FormatItems(const std::vector<Item>& items) {
  std::string out;
  for (const Item& item : items) {
    if (!out.empty()) {
      out += ',';
    }
    out += FormatItem(item);
  }
  return out;
}

}  // namespace

std::string FormatDouble(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

bool ParseScaled(std::string_view text, int64_t unit, int64_t* out) {
  double v = 0;
  return FromChars(text, &v) && Scale(v, unit, out);
}

std::string FormatList(const std::vector<NodeEvent>& events) { return FormatItems(events); }
std::string FormatList(const std::vector<Cut>& cuts) { return FormatItems(cuts); }
bool ParseList(std::string_view text, std::vector<NodeEvent>* events) {
  return ParseItems(text, events);
}
bool ParseList(std::string_view text, std::vector<Cut>* cuts) { return ParseItems(text, cuts); }

}  // namespace options_text

bool KeyValues::FromText(std::string_view text, KeyValues* out, std::string* error) {
  for (size_t pos = 0; pos < text.size();) {
    const size_t nl = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      *error = "malformed line '" + std::string(line) + "' (want key=value)";
      return false;
    }
    out->Set(std::string(line.substr(0, eq)), std::string(line.substr(eq + 1)));
  }
  return true;
}

bool KeyValues::Check(std::string* error) const {
  if (!error_.empty()) {
    *error = error_;
    return false;
  }
  for (const auto& [key, value] : values_) {
    if (!value.read) {
      *error = "unknown key '" + key + "'";
      return false;
    }
  }
  return true;
}

}  // namespace fragvisor
