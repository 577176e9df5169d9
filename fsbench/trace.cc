#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "util/string_util.h"

namespace fsbench {

using fsjoin::StrFormat;

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint64_t Tracer::AddSpan(Span span) {
  span.id = ++last_span_id_;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::string layer,
                     uint64_t join_id)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.join_id = join_id;
  if (!tracer_->open_.empty()) {
    const Span& parent = tracer_->spans_[tracer_->open_.back()];
    span.parent = parent.id;
    if (span.join_id == 0) span.join_id = parent.join_id;
  }
  span.start_us = tracer_->NowMicros();
  index_ = tracer_->spans_.size();
  tracer_->AddSpan(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (!tracer_->enabled_) return;
  Span& span = tracer_->spans_[index_];
  span.dur_us = tracer_->NowMicros() - span.start_us;
  tracer_->open_.pop_back();
}

void Tracer::AddJobSpans(size_t run_index,
                         const std::vector<fsjoin::mr::JobMetrics>& jobs,
                         uint32_t slots) {
  if (!enabled_) return;
  slots = std::max<uint32_t>(slots, 1);
  const Span run = spans_[run_index];  // copy: AddSpan reallocates
  int64_t cursor = run.start_us;
  for (const fsjoin::mr::JobMetrics& job : jobs) {
    Span job_span;
    job_span.name = "job:" + job.job_name;
    job_span.layer = "core";
    job_span.parent = run.id;
    job_span.join_id = run.join_id;
    job_span.start_us = cursor;
    job_span.dur_us = job.total_wall_micros;
    job_span.derived = true;
    const uint64_t job_id = AddSpan(job_span);
    cursor += job.total_wall_micros;

    // List-schedule the map tasks, then the reduce tasks, onto the slots in
    // task order. Parallel runners can make that layout longer than the
    // job's measured wall; it is then compressed to fit and marked scaled.
    struct Placed {
      std::string name;
      int64_t start = 0;
      int64_t end = 0;
      uint32_t lane = 0;
    };
    std::vector<Placed> placed;
    int64_t phase_start = 0;
    const std::pair<const char*, const std::vector<fsjoin::mr::TaskMetrics>*>
        phases[] = {{"map", &job.map_tasks}, {"reduce", &job.reduce_tasks}};
    for (const auto& [kind, tasks] : phases) {
      std::vector<int64_t> lane_end(slots, phase_start);
      for (size_t i = 0; i < tasks->size(); ++i) {
        const auto lane = static_cast<uint32_t>(
            std::min_element(lane_end.begin(), lane_end.end()) -
            lane_end.begin());
        const int64_t start = lane_end[lane];
        lane_end[lane] += (*tasks)[i].wall_micros;
        placed.push_back({StrFormat("%s[%zu]", kind, i), start,
                          lane_end[lane], lane + 1});
      }
      phase_start = *std::max_element(lane_end.begin(), lane_end.end());
    }
    const bool scaled = phase_start > job.total_wall_micros;
    const double scale =
        scaled ? static_cast<double>(job.total_wall_micros) /
                     static_cast<double>(phase_start)
               : 1.0;
    for (Placed& p : placed) {
      Span task;
      task.name = std::move(p.name);
      task.layer = "mr";
      task.parent = job_id;
      task.join_id = run.join_id;
      task.start_us =
          job_span.start_us + static_cast<int64_t>(p.start * scale);
      task.dur_us = job_span.start_us + static_cast<int64_t>(p.end * scale) -
                    task.start_us;
      task.lane = p.lane;
      task.derived = true;
      task.scaled = scaled;
      AddSpan(std::move(task));
    }
  }
}

fsjoin::Status Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return fsjoin::Status::IoError("cannot open for writing: " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are harness-made identifiers (no quotes or escapes).
    out << (i == 0 ? "\n" : ",\n")
        << StrFormat(
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
               "\"tid\":%u,\"ts\":%lld,\"dur\":%lld,\"args\":{\"span_id\":%llu,"
               "\"parent\":%llu,\"join_id\":%llu,\"derived\":%s,"
               "\"scaled\":%s}}",
               s.name.c_str(), s.layer.c_str(), s.lane,
               static_cast<long long>(s.start_us),
               static_cast<long long>(s.dur_us),
               static_cast<unsigned long long>(s.id),
               static_cast<unsigned long long>(s.parent),
               static_cast<unsigned long long>(s.join_id),
               s.derived ? "true" : "false", s.scaled ? "true" : "false");
  }
  out << "\n]}\n";
  out.flush();
  if (!out) return fsjoin::Status::IoError("write failure: " + path);
  return fsjoin::Status::OK();
}

}  // namespace fsbench
