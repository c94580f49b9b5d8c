#pragma once

// In-memory span recorder for the benchmark's traced runs.
//
// A span brackets one call the benchmark makes into a public library
// function (CheckBatch, SpecSession::Check, ParseDtd, ...). It records a
// name, start and end times, the enclosing span on the same thread (its
// parent) and the request id the calling loop is serving. Spans are kept
// in per-thread buffers and only merged when the run ends, so recording
// one costs two clock reads and a vector append. Self time — a span's
// duration minus the time its child spans cover — is what the per-layer
// metrics are built from.
//
// Recording is off unless Tracer::SetEnabled(true) was called; a disabled
// ScopedSpan reads no clock and records nothing.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = no enclosing span on this thread.
  uint64_t request = 0;
  double self_ms = 0.0;  ///< Filled in by Tracer::Collect.
};

class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool Enabled();

  /// Request id attached to spans opened on the calling thread from now on.
  static void SetRequest(uint64_t request);

  /// Merges every thread's buffer (call after all recording threads have
  /// finished), computes self times, and clears the buffers.
  static std::vector<Span> Collect();

  /// Writes `spans` as one JSON object per line.
  static bool Write(const std::vector<Span>& spans, const std::string& path);

  /// Measured cost of recording one span (open + close), in nanoseconds,
  /// from a short calibration loop on the calling thread.
  static double CalibrateSpanCostNs();
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  size_t slot_ = 0;
  uint64_t saved_parent_ = 0;
};

/// Self times in milliseconds, grouped by span name.
std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans);

}  // namespace xbench
