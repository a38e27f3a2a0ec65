// Structured event tracing.
//
// A Tracer records (time, category, event, detail) tuples into a bounded
// ring buffer. It attaches to the EventLoop so every subsystem that owns a
// loop pointer can emit events without extra plumbing.
//
//   Tracer tracer;
//   tracer.Enable(TraceCategory::kDsm | TraceCategory::kMigration);
//   loop.set_tracer(&tracer);
//   ... run ...
//   tracer.Dump(stdout);
//
// The rule for trace points: pass the detail as parts, never as a string.
//
//   loop->Trace(TraceCategory::kDsm, "fault_resolved", "node=", node, " latency_us=", us);
//
// EventLoop::Trace formats the parts only after it has found a tracer
// attached with the category enabled, so an idle trace point costs one
// pointer test and builds nothing. Numbers are formatted by std::to_string,
// C strings are copied verbatim; a std::string part does not compile, since
// it would have been built before the check.

#ifndef FRAGVISOR_SRC_SIM_TRACE_H_
#define FRAGVISOR_SRC_SIM_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "src/sim/time.h"

namespace fragvisor {

// Bitmask categories (combine with |).
struct TraceCategory {
  static constexpr uint32_t kDsm = 1u << 0;
  static constexpr uint32_t kVcpu = 1u << 1;
  static constexpr uint32_t kIo = 1u << 2;
  static constexpr uint32_t kMigration = 1u << 3;
  static constexpr uint32_t kSched = 1u << 4;
  static constexpr uint32_t kCkpt = 1u << 5;
  static constexpr uint32_t kFault = 1u << 6;
  static constexpr uint32_t kAll = ~0u;
};

const char* TraceCategoryName(uint32_t category);

struct TraceEvent {
  TimeNs time = 0;
  uint32_t category = 0;
  const char* event = "";  // static string supplied by the instrumentation
  std::string detail;
};

// Appends one trace-detail part to `out`.
template <typename Part>
void AppendTracePart(std::string& out, const Part& part) {
  if constexpr (std::is_arithmetic_v<Part>) {
    out += std::to_string(part);
  } else {
    static_assert(std::is_convertible_v<const Part&, const char*>,
                  "trace detail parts are numbers or C strings, not pre-built strings");
    out += part;
  }
}

// Concatenates the parts into the detail string of one TraceEvent.
template <typename... Parts>
std::string FormatTraceDetail(const Parts&... parts) {
  std::string detail;
  (AppendTracePart(detail, parts), ...);
  return detail;
}

class Tracer {
 public:
  explicit Tracer(size_t capacity = 65536);

  // Enables the given category mask (replaces the previous mask).
  void Enable(uint32_t mask) { mask_ = mask; }
  uint32_t mask() const { return mask_; }
  bool enabled(uint32_t category) const { return (mask_ & category) != 0; }

  // Records an event (dropped silently if its category is disabled). The ring
  // keeps the most recent `capacity` events.
  void Record(TimeNs time, uint32_t category, const char* event, std::string detail);

  // Events in chronological order (oldest retained first).
  std::vector<TraceEvent> Snapshot() const;

  uint64_t recorded() const { return recorded_; }  // total, incl. overwritten
  uint64_t dropped() const { return recorded_ <= capacity_ ? 0 : recorded_ - capacity_; }
  void Clear();

  // Writes "time_us category event detail" lines.
  void Dump(std::FILE* out) const;

 private:
  size_t capacity_;
  uint32_t mask_ = 0;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;
  uint64_t recorded_ = 0;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_TRACE_H_
