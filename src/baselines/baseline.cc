#include "baselines/baseline.h"

#include <sstream>

#include "util/string_util.h"

namespace fsjoin {

Status BaselineConfig::Validate() const {
  // Negated range test, so NaN (every comparison false) fails too.
  if (!(theta > 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("theta must be in (0, 1], got %f", theta));
  }
  return exec.Validate();
}

const mr::JobMetrics* BaselineReport::SignatureJob() const {
  if (signature_stage.empty()) return nullptr;
  for (const mr::JobMetrics& j : jobs) {
    if (j.job_name == signature_stage) return &j;
  }
  return nullptr;
}

double BaselineReport::DuplicationFactor(uint64_t input_records) const {
  const mr::JobMetrics* signature = SignatureJob();
  if (input_records == 0 || signature == nullptr) return 0.0;
  return static_cast<double>(signature->map_output_records) /
         static_cast<double>(input_records);
}

std::string BaselineReport::Summary() const {
  std::ostringstream os;
  os << algorithm << ": " << jobs.size() << " jobs, "
     << WithThousandsSep(candidate_pairs) << " candidates, "
     << WithThousandsSep(result_pairs) << " results, "
     << StrFormat("%.1f ms", total_wall_ms);
  uint64_t shuffle = 0;
  uint64_t spilled = 0;
  uint32_t runs = 0;
  for (const mr::JobMetrics& j : jobs) {
    shuffle += j.shuffle_bytes;
    spilled += j.spilled_bytes;
    runs += j.spill_runs;
  }
  os << ", shuffle " << HumanBytes(shuffle);
  if (runs > 0) {
    os << ", spilled " << HumanBytes(spilled) << " in " << runs << " runs";
  }
  return os.str();
}

}  // namespace fsjoin
