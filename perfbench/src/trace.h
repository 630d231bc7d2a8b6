// In-memory span recorder for the traced benchmark run. Spans are opened
// and closed by the benchmark's own code around each call into a qavat
// layer (the library itself is not instrumented), nest strictly on the
// calling thread, and share a group id per pass / cycle so one request's
// spans can be picked out of the timeline. At exit the spans are written
// as Chrome Trace Event Format JSON (complete "X" events), which
// chrome://tracing and Perfetto open directly.
//
// When the recorder is disabled, Span objects cost one branch and record
// nothing, so the untraced end-to-end loop pays no tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// One closed (or still open) span.
  struct Record {
    const char* name;     ///< the public call, e.g. "Session::run_manifest"
    const char* layer;    ///< the repo module it belongs to, e.g. "eval/runner"
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;      ///< index of the enclosing span, -1 at top level
    std::int64_t group = 0;  ///< pass / cycle id shared by related spans
  };

  /// RAII span: opens on construction, closes on destruction.
  class Span {
   public:
    Span(Tracer& t, const char* name, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Group id stamped on spans opened from now on.
  void set_group(std::int64_t g) { group_ = g; }

  const std::vector<Record>& records() const { return records_; }

  /// Per-layer self time in seconds over the spans whose group is at
  /// least `min_group`: each span's duration minus the part covered by its
  /// direct children, summed by layer.
  std::map<std::string, double> self_seconds_by_layer(std::int64_t min_group) const;

  /// Write every span as Chrome Trace Event Format JSON; `other_data` is a
  /// JSON object body (without braces) stored under "otherData".
  bool write_chrome_trace(const std::string& path,
                          const std::string& other_data) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_ = false;
  std::int64_t group_ = 0;
  std::vector<Record> records_;
  std::vector<int> open_;  ///< stack of open span indices
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace perfbench
