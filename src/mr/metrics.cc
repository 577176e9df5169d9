#include "mr/metrics.h"

#include <algorithm>
#include <sstream>

#include "util/string_util.h"

namespace fsjoin::mr {

double JobMetrics::DuplicationFactor() const {
  if (map_input_records == 0) return 0.0;
  return static_cast<double>(map_output_records) /
         static_cast<double>(map_input_records);
}

double JobMetrics::ReduceSkew() const {
  if (reduce_tasks.empty()) return 1.0;
  uint64_t max_bytes = 0;
  uint64_t total = 0;
  for (const TaskMetrics& t : reduce_tasks) {
    max_bytes = std::max(max_bytes, t.input_bytes);
    total += t.input_bytes;
  }
  if (total == 0) return 1.0;
  double mean =
      static_cast<double>(total) / static_cast<double>(reduce_tasks.size());
  return static_cast<double>(max_bytes) / mean;
}

std::string JobMetrics::Summary() const {
  std::ostringstream os;
  os << "job '" << job_name << "'";
  if (!join_kernel.empty()) os << " (kernel " << join_kernel << ")";
  os << ":\n";
  os << StrFormat("  map:     %s records in, %s records out (%s), dup=%.2fx\n",
                  WithThousandsSep(map_input_records).c_str(),
                  WithThousandsSep(map_output_records).c_str(),
                  HumanBytes(map_output_bytes).c_str(), DuplicationFactor());
  os << StrFormat("  shuffle: %s records, %s, reduce skew=%.2f",
                  WithThousandsSep(shuffle_records).c_str(),
                  HumanBytes(shuffle_bytes).c_str(), ReduceSkew());
  if (shuffle_connects > 0) {
    os << StrFormat(", %s fetch connects",
                    WithThousandsSep(shuffle_connects).c_str());
  }
  os << "\n";
  if (spill_runs > 0) {
    os << StrFormat("  spill:   %s in %u runs\n",
                    HumanBytes(spilled_bytes).c_str(), spill_runs);
  }
  os << StrFormat("  reduce:  %s records out (%s)\n",
                  WithThousandsSep(reduce_output_records).c_str(),
                  HumanBytes(reduce_output_bytes).c_str());
  os << StrFormat("  time:    map %.1f ms, reduce %.1f ms, total %.1f ms",
                  static_cast<double>(map_wall_micros) / 1000.0,
                  static_cast<double>(reduce_wall_micros) / 1000.0,
                  static_cast<double>(total_wall_micros) / 1000.0);
  return os.str();
}

JobMetrics CombineJobMetrics(const std::vector<JobMetrics>& jobs,
                             const std::string& name) {
  JobMetrics out;
  out.job_name = name;
  for (const JobMetrics& j : jobs) {
    if (out.join_kernel.empty()) out.join_kernel = j.join_kernel;
    out.map_input_records += j.map_input_records;
    out.map_input_bytes += j.map_input_bytes;
    out.map_output_records += j.map_output_records;
    out.map_output_bytes += j.map_output_bytes;
    out.shuffle_records += j.shuffle_records;
    out.shuffle_bytes += j.shuffle_bytes;
    out.spilled_bytes += j.spilled_bytes;
    out.spill_runs += j.spill_runs;
    out.shuffle_connects += j.shuffle_connects;
    out.reduce_output_records += j.reduce_output_records;
    out.reduce_output_bytes += j.reduce_output_bytes;
    out.map_tasks.insert(out.map_tasks.end(), j.map_tasks.begin(),
                         j.map_tasks.end());
    out.reduce_tasks.insert(out.reduce_tasks.end(), j.reduce_tasks.begin(),
                            j.reduce_tasks.end());
    out.map_wall_micros += j.map_wall_micros;
    out.reduce_wall_micros += j.reduce_wall_micros;
    out.total_wall_micros += j.total_wall_micros;
  }
  return out;
}

}  // namespace fsjoin::mr
