#include "spans.h"

#include <cstdio>
#include <fstream>

namespace servicebench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::uint32_t SpanRecorder::Begin(const char* name,
                                  std::uint64_t request_id) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back(Span{name, request_id, parent, Clock::now(), {}});
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(std::uint32_t span) {
  spans_[span].end = Clock::now();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

tcdp::Status SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return tcdp::Status::Internal("cannot write " + path);
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name, us(s.start),
                  us(s.end) - us(s.start), i,
                  s.parent == kNoParent ? -1LL
                                        : static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request_id));
    out << buf;
  }
  out << "\n]}\n";
  if (!out) return tcdp::Status::Internal("cannot write " + path);
  return tcdp::Status::OK();
}

}  // namespace servicebench
