#ifndef SERVICEBENCH_SPANS_H_
#define SERVICEBENCH_SPANS_H_

/// \file
/// Spans the traced run records around the benchmark's own calls into
/// each layer: name, start, end, parent span, request id. They stay in
/// memory and are written out once, at the end of the run. Nothing is
/// recorded inside the program.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace servicebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  /// A disabled recorder records nothing and costs one branch per span.
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the innermost open span.
  std::uint32_t Begin(const char* name, std::uint64_t request_id);
  void End(std::uint32_t span);

  std::size_t size() const { return spans_.size(); }
  /// Drops every recorded span (spans still open must not be ended).
  void Clear() { spans_.clear(); }

  /// Chrome trace-event JSON, with parent and request id as args.
  tcdp::Status WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request_id;
    std::uint32_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a no-op on a null or disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::uint64_t request_id = 0)
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                              : nullptr),
        span_(recorder_ != nullptr ? recorder_->Begin(name, request_id) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t span_;
};

}  // namespace servicebench

#endif  // SERVICEBENCH_SPANS_H_
