#include "mr/pipeline.h"

#include <utility>

namespace fsjoin::mr {

void MiniDfs::Put(const std::string& name, Dataset dataset) {
  datasets_[name] = std::move(dataset);
}

Result<const Dataset*> MiniDfs::Get(const std::string& name) const {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset named '" + name + "'");
  }
  return &it->second;
}

bool MiniDfs::Has(const std::string& name) const {
  return datasets_.count(name) > 0;
}

void MiniDfs::Remove(const std::string& name) { datasets_.erase(name); }

Result<Dataset> MiniDfs::Take(const std::string& name) {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset named '" + name + "'");
  }
  Dataset dataset = std::move(it->second);
  datasets_.erase(it);
  return dataset;
}

std::vector<std::string> MiniDfs::List() const {
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, dataset] : datasets_) names.push_back(name);
  return names;
}

Status Pipeline::RunJob(const JobConfig& config, const std::string& input_name,
                        const std::string& output_name) {
  FSJOIN_ASSIGN_OR_RETURN(const Dataset* input, dfs_->Get(input_name));
  Dataset output;
  JobMetrics metrics;
  FSJOIN_RETURN_NOT_OK(engine_->Run(config, *input, &output, &metrics));
  history_.push_back(std::move(metrics));
  dfs_->Put(output_name, std::move(output));
  return Status::OK();
}

JobMetrics Pipeline::TotalMetrics(const std::string& name) const {
  return CombineJobMetrics(history_, name);
}

}  // namespace fsjoin::mr
