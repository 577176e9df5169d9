#ifndef FSJOIN_MR_PIPELINE_H_
#define FSJOIN_MR_PIPELINE_H_

#include <map>
#include <string>
#include <vector>

#include "mr/engine.h"
#include "mr/job.h"
#include "mr/kv.h"
#include "mr/metrics.h"
#include "util/status.h"

namespace fsjoin::mr {

/// In-memory stand-in for HDFS: named datasets passed between chained jobs.
class MiniDfs {
 public:
  /// Stores (or replaces) a dataset under `name`.
  void Put(const std::string& name, Dataset dataset);

  /// Fetches a dataset. NotFound if absent.
  Result<const Dataset*> Get(const std::string& name) const;

  bool Has(const std::string& name) const;
  void Remove(const std::string& name);

  /// Removes `name` and returns its dataset, moved out rather than copied.
  Result<Dataset> Take(const std::string& name);

  /// Names of all stored datasets (sorted).
  std::vector<std::string> List() const;

 private:
  std::map<std::string, Dataset> datasets_;
};

/// Runs a chain of MapReduce jobs against a MiniDfs, collecting per-job
/// metrics — the shape of a full FS-Join/baseline execution (ordering →
/// filtering → verification).
class Pipeline {
 public:
  /// \param engine  borrowed; must outlive the pipeline.
  /// \param dfs     borrowed; must outlive the pipeline.
  Pipeline(Engine* engine, MiniDfs* dfs) : engine_(engine), dfs_(dfs) {}

  /// Runs `config` reading `input_name` and writing `output_name`.
  Status RunJob(const JobConfig& config, const std::string& input_name,
                const std::string& output_name);

  /// Metrics of every job run so far, in execution order.
  const std::vector<JobMetrics>& history() const { return history_; }

  /// Aggregate of history().
  JobMetrics TotalMetrics(const std::string& name) const;

  MiniDfs* dfs() { return dfs_; }

 private:
  Engine* engine_;
  MiniDfs* dfs_;
  std::vector<JobMetrics> history_;
};

}  // namespace fsjoin::mr

#endif  // FSJOIN_MR_PIPELINE_H_
