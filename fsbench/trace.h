#ifndef FSBENCH_TRACE_H_
#define FSBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mr/metrics.h"
#include "util/status.h"

namespace fsbench {

/// One timed interval of a traced benchmark run. Spans the harness records
/// around its own calls into the library have `derived == false`. Spans
/// synthesized afterwards from a join's JobMetrics durations (jobs, map and
/// reduce tasks) carry `derived == true`: the report holds durations, not
/// timestamps, so their placement is a layout in execution order.
struct Span {
  std::string name;
  std::string layer;  ///< repo module the span measures (text, sim, core, ...)
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t join_id = 0;  ///< shared by every span of one join; 0 = none
  int64_t start_us = 0;  ///< since the tracer was created
  int64_t dur_us = 0;
  uint32_t lane = 0;  ///< Chrome trace tid: 0 = harness, 1.. = task slots
  bool derived = false;
  bool scaled = false;  ///< derived task layout compressed to fit its job
};

/// In-memory span recorder, written out as Chrome trace-event JSON when the
/// run ends. A disabled tracer records nothing and reads no clock, so the
/// untraced run pays only a branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Times one harness call. Scopes nest: a scope opened while another is
  /// open becomes its child.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string layer,
          uint64_t join_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Index of the span in Tracer::spans() (valid only when enabled).
    size_t index() const { return index_; }

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  /// Adds derived child spans for one finished join: every job back to back
  /// from the start of `run`, and inside each job its map tasks then its
  /// reduce tasks, list-scheduled onto `slots` lanes.
  void AddJobSpans(size_t run_index,
                   const std::vector<fsjoin::mr::JobMetrics>& jobs,
                   uint32_t slots);

  /// A fresh id for the spans of one join.
  uint64_t NextJoinId() { return ++last_join_id_; }

  fsjoin::Status WriteChromeJson(const std::string& path) const;

 private:
  int64_t NowMicros() const;
  uint64_t AddSpan(Span span);

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< stack of open scope indices
  uint64_t last_span_id_ = 0;
  uint64_t last_join_id_ = 0;
};

}  // namespace fsbench

#endif  // FSBENCH_TRACE_H_
