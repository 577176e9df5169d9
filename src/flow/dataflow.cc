#include "flow/dataflow.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>

#include "mr/scheduler.h"
#include "mr/shuffle.h"
#include "mr/task.h"
#include "store/memory_budget.h"
#include "store/merge.h"
#include "store/run_file.h"
#include "store/temp_dir.h"
#include "util/logging.h"
#include "util/timer.h"

namespace fsjoin::flow {

namespace {

/// Emitter adapter feeding records into a callback chain.
class CallbackEmitter : public mr::Emitter {
 public:
  using Sink = std::function<Status(mr::KeyValue)>;
  explicit CallbackEmitter(Sink sink) : sink_(std::move(sink)) {}

  void Emit(std::string_view key, std::string_view value) override {
    if (!status_.ok()) return;
    status_ = sink_(mr::KeyValue{std::string(key), std::string(value)});
  }

  const Status& status() const { return status_; }

 private:
  Sink sink_;
  Status status_;
};

}  // namespace

Pipeline::Pipeline(std::string name, size_t num_threads,
                   uint32_t num_partitions)
    : name_(std::move(name)),
      num_partitions_(std::max<uint32_t>(num_partitions, 1)),
      owned_runner_(mr::MakeTaskRunner(mr::RunnerKind::kThreads, num_threads)),
      runner_(owned_runner_.get()) {}

Pipeline& Pipeline::FlatMap(std::string stage_name, mr::MapperFactory factory) {
  Stage stage;
  stage.wide = false;
  stage.name = std::move(stage_name);
  stage.mapper = std::move(factory);
  stages_.push_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::SetSpill(SpillOptions options) {
  spill_ = std::move(options);
  return *this;
}

Pipeline& Pipeline::SetRunner(mr::TaskRunner* runner, int task_retries) {
  runner_ = runner != nullptr ? runner : owned_runner_.get();
  task_retries_ = task_retries;
  return *this;
}

Pipeline& Pipeline::GroupByKey(
    std::string stage_name, mr::ReducerFactory factory,
    std::shared_ptr<const mr::Partitioner> partitioner,
    mr::TaskSideChannel side) {
  Stage stage;
  stage.wide = true;
  stage.name = std::move(stage_name);
  stage.reducer = std::move(factory);
  stage.partitioner = partitioner != nullptr
                          ? std::move(partitioner)
                          : std::make_shared<mr::HashPartitioner>();
  stage.side = std::move(side);
  stages_.push_back(std::move(stage));
  return *this;
}

Result<mr::Dataset> Pipeline::Run(const mr::Dataset& input) {
  WallTimer timer;
  metrics_ = Metrics{};
  metrics_.input_records = input.size();

  // External shuffle: buffered shuffle buckets are charged against this
  // budget (chained to the process-wide one); over-budget buckets are
  // sorted and written as run files into a Run-scoped scratch directory,
  // removed when this function returns on every path. An isolated runner
  // needs the scratch directory even without a budget: it is where task
  // attempts exchange their interchange files.
  const bool isolated = runner_->isolated();
  std::optional<store::TempSpillDir> spill_scratch;
  std::optional<store::MemoryBudget> job_budget;
  if (spill_.memory_bytes > 0 || isolated) {
    FSJOIN_ASSIGN_OR_RETURN(
        store::TempSpillDir dir,
        store::TempSpillDir::Create(spill_.dir, "fsjoin-spill-flow"));
    spill_scratch.emplace(std::move(dir));
  }
  if (spill_.memory_bytes > 0) {
    job_budget.emplace(spill_.memory_bytes, &store::ProcessMemoryBudget());
  }
  mr::TaskScheduler scheduler(runner_, task_retries_);

  // Initial partitioning: contiguous splits (like input blocks).
  std::vector<mr::Dataset> partitions(num_partitions_);
  {
    const size_t per =
        (input.size() + num_partitions_ - 1) / std::max<uint32_t>(num_partitions_, 1);
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      const size_t begin = std::min(input.size(), p * per);
      const size_t end = std::min(input.size(), begin + per);
      partitions[p].assign(input.begin() + begin, input.begin() + end);
    }
  }

  size_t s = 0;
  uint32_t pass = 0;
  while (s < stages_.size()) {
    // Collect the maximal run of narrow stages starting at s, optionally
    // terminated by one wide stage: one fused pass handles narrow chain +
    // the wide stage's partition-and-ship.
    size_t chain_end = s;
    while (chain_end < stages_.size() && !stages_[chain_end].wide) {
      ++chain_end;
    }
    const bool has_wide = chain_end < stages_.size();

    WideStageMetrics stage_metrics;
    if (has_wide) {
      stage_metrics.name = stages_[chain_end].name;
      for (const mr::Dataset& p : partitions) {
        stage_metrics.input_records += p.size();
        stage_metrics.input_bytes += mr::DatasetBytes(p);
      }
    }

    // Per source-partition output buckets (either pass-through or keyed by
    // the wide stage's partitioner), landed from each map task's output.
    const uint32_t num_buckets = has_wide ? num_partitions_ : 1;
    std::vector<std::vector<mr::Dataset>> shuffled(num_partitions_);

    // Spill bookkeeping for this stage: slot[src][dst] records the run file
    // a (src,dst) bucket was written to (empty path = still in memory), and
    // charged[src] the budget charge held by src's surviving buckets.
    // Charging happens on the scheduling thread as each map task's buckets
    // land (task-index order), so spill decisions are deterministic and
    // identical across runners. The guard releases the stage's charges on
    // every exit path so the process-wide budget never leaks across stages
    // or on errors.
    struct SpillSlot {
      std::string path;
      uint64_t records = 0;
      uint64_t bytes = 0;
    };
    const bool spilling = has_wide && job_budget.has_value();
    std::vector<std::vector<SpillSlot>> spill_slots(
        spilling ? num_partitions_ : 0,
        std::vector<SpillSlot>(num_partitions_));
    std::vector<uint64_t> charged(num_partitions_, 0);
    struct ChargeGuard {
      store::MemoryBudget* budget = nullptr;
      const std::vector<uint64_t>* charges = nullptr;
      ~ChargeGuard() {
        if (budget == nullptr) return;
        for (uint64_t c : *charges) budget->Release(c);
      }
    } charge_guard;
    if (spilling) {
      charge_guard.budget = &*job_budget;
      charge_guard.charges = &charged;
    }

    // One fused pass = one stage of map tasks on the scheduler: each task
    // runs the narrow chain over its partition and carries its routed
    // buckets back in TaskOutput::buckets. Under an isolated runner the
    // chain executes in a forked child (its closures cannot cross an exec
    // boundary) and the buckets return through the CRC-framed run-file
    // interchange.
    std::vector<mr::TaskSpec> map_specs(num_partitions_);
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      mr::TaskSpec& spec = map_specs[p];
      spec.job_name =
          name_ + "/" + (has_wide ? stages_[chain_end].name : "tail");
      spec.kind = mr::TaskKind::kMap;
      spec.task_index = p;
      spec.num_partitions = num_buckets;
      spec.input_end = partitions[p].size();
      if (isolated) {
        spec.output_base = spill_scratch->path() + "/p" +
                           std::to_string(pass) + "-map-t" + std::to_string(p);
      }
    }
    mr::TaskBody map_body = [&](const mr::TaskSpec& task,
                                mr::TaskOutput* out) -> Status {
      const size_t p = task.task_index;
      out->buckets.assign(task.num_partitions, mr::Dataset());
      // Build the fused chain back-to-front: the last sink either routes
      // into shuffle buckets or appends to the single output bucket.
      const mr::Partitioner* partitioner =
          has_wide ? stages_[chain_end].partitioner.get() : nullptr;
      std::vector<mr::Dataset>& sinks = out->buckets;
      CallbackEmitter::Sink sink = [&sinks, partitioner,
                                    this](mr::KeyValue kv) -> Status {
        const uint32_t bucket =
            partitioner != nullptr
                ? partitioner->Partition(kv.key, num_partitions_)
                : 0;
        sinks[bucket].push_back(std::move(kv));
        return Status::OK();
      };

      // Instantiate one mapper per narrow stage for this partition and
      // compose their Map calls.
      std::vector<std::unique_ptr<mr::Mapper>> mappers;
      for (size_t i = s; i < chain_end; ++i) {
        mappers.push_back(stages_[i].mapper());
      }
      // emit_into[i] feeds record into mapper i (or the sink at the end).
      std::vector<CallbackEmitter::Sink> emit_into(mappers.size() + 1);
      emit_into[mappers.size()] = sink;
      for (size_t i = mappers.size(); i-- > 0;) {
        mr::Mapper* mapper = mappers[i].get();
        CallbackEmitter::Sink next = emit_into[i + 1];
        emit_into[i] = [mapper, next](mr::KeyValue kv) -> Status {
          CallbackEmitter emitter(next);
          FSJOIN_RETURN_NOT_OK(mapper->Map(kv, &emitter));
          return emitter.status();
        };
      }

      Status st;
      for (auto& mapper : mappers) {
        st = mapper->Setup();
        if (!st.ok()) break;
      }
      if (st.ok()) {
        for (mr::KeyValue& kv : partitions[p]) {
          st = emit_into[0](std::move(kv));
          if (!st.ok()) break;
        }
      }
      if (st.ok()) {
        // Finish hooks cascade into the rest of the chain.
        for (size_t i = 0; i < mappers.size() && st.ok(); ++i) {
          CallbackEmitter emitter(emit_into[i + 1]);
          st = mappers[i]->Finish(&emitter);
          if (st.ok()) st = emitter.status();
        }
      }
      return st;
    };
    FSJOIN_RETURN_NOT_OK(scheduler.RunStage(
        std::move(map_specs), map_body, mr::TaskSideChannel{},
        [&](const mr::TaskSpec& task, mr::TaskOutput out) -> Status {
          const size_t p = task.task_index;
          if (out.buckets.size() != num_buckets) {
            return Status::Internal(
                "flow map task " + std::to_string(p) + " returned " +
                std::to_string(out.buckets.size()) + " buckets, expected " +
                std::to_string(num_buckets));
          }
          shuffled[p] = std::move(out.buckets);
          if (!spilling) return Status::OK();
          // Charge each landed bucket; an over-budget charge sends that
          // bucket to disk as a key-sorted run (stable sort, so the run
          // preserves its source's emission order under equal keys).
          for (uint32_t dst = 0; dst < num_buckets; ++dst) {
            mr::Dataset& bucket = shuffled[p][dst];
            if (bucket.empty()) continue;
            const uint64_t bytes = mr::DatasetBytes(bucket);
            if (job_budget->Charge(bytes)) {
              charged[p] += bytes;
              continue;
            }
            job_budget->Release(bytes);
            mr::SortDatasetByKey(&bucket);
            SpillSlot& slot = spill_slots[p][dst];
            slot.path = spill_scratch->path() + "/s" +
                        std::to_string(metrics_.num_shuffles) + "-m" +
                        std::to_string(p) + "-r" + std::to_string(dst) +
                        ".run";
            store::RunWriter writer(slot.path);
            Status st = writer.Open();
            for (const mr::KeyValue& kv : bucket) {
              if (!st.ok()) break;
              st = writer.Add(kv.key, kv.value);
            }
            if (st.ok()) st = writer.Finish();
            FSJOIN_RETURN_NOT_OK(st);
            slot.records = bucket.size();
            slot.bytes = bytes;
            mr::Dataset().swap(bucket);
          }
          return Status::OK();
        }));

    // Assemble the next generation of partitions.
    std::vector<mr::Dataset> next(num_partitions_);
    if (has_wide) {
      ++metrics_.num_shuffles;
      // A destination with any spilled source reduces by streaming a merge
      // of its per-source pieces instead of concatenating them.
      std::vector<bool> merged_dst(num_partitions_, false);
      if (spilling) {
        for (uint32_t src = 0; src < num_partitions_; ++src) {
          for (uint32_t dst = 0; dst < num_partitions_; ++dst) {
            if (!spill_slots[src][dst].path.empty()) merged_dst[dst] = true;
          }
        }
      }
      for (uint32_t dst = 0; dst < num_partitions_; ++dst) {
        if (merged_dst[dst]) {
          // Pieces stay separate for the merge; count what crossed the
          // shuffle boundary from the slots and surviving buckets.
          for (uint32_t src = 0; src < num_partitions_; ++src) {
            const SpillSlot& slot = spill_slots[src][dst];
            if (!slot.path.empty()) {
              stage_metrics.shuffle_records += slot.records;
              stage_metrics.shuffle_bytes += slot.bytes;
              stage_metrics.spilled_bytes += slot.bytes;
              stage_metrics.spill_runs += 1;
            } else {
              stage_metrics.shuffle_records += shuffled[src][dst].size();
              stage_metrics.shuffle_bytes +=
                  mr::DatasetBytes(shuffled[src][dst]);
            }
          }
          continue;
        }
        size_t total = 0;
        for (uint32_t src = 0; src < num_partitions_; ++src) {
          total += shuffled[src][dst].size();
        }
        mr::Dataset bucket;
        bucket.reserve(total);
        for (uint32_t src = 0; src < num_partitions_; ++src) {
          std::move(shuffled[src][dst].begin(), shuffled[src][dst].end(),
                    std::back_inserter(bucket));
          mr::Dataset().swap(shuffled[src][dst]);
        }
        stage_metrics.shuffle_records += bucket.size();
        stage_metrics.shuffle_bytes += mr::DatasetBytes(bucket);
        next[dst] = std::move(bucket);
      }
      metrics_.shuffle_records += stage_metrics.shuffle_records;
      metrics_.shuffle_bytes += stage_metrics.shuffle_bytes;
      metrics_.spilled_bytes += stage_metrics.spilled_bytes;
      metrics_.spill_runs += stage_metrics.spill_runs;
      // Grouped reduce per partition: one reduce task per destination,
      // scheduled and retried like the map pass. The wide stage's side
      // channel lets reducer mutations of shared driver context cross back
      // from forked children.
      const Stage& wide = stages_[chain_end];
      std::vector<mr::Dataset> reduced(num_partitions_);
      std::vector<mr::TaskSpec> red_specs(num_partitions_);
      for (uint32_t p = 0; p < num_partitions_; ++p) {
        mr::TaskSpec& spec = red_specs[p];
        spec.job_name = name_ + "/" + wide.name;
        spec.kind = mr::TaskKind::kReduce;
        spec.task_index = p;
        spec.num_partitions = num_partitions_;
        if (isolated) {
          spec.output_base = spill_scratch->path() + "/p" +
                             std::to_string(pass) + "-red-t" +
                             std::to_string(p);
        }
      }
      mr::TaskBody red_body = [&](const mr::TaskSpec& task,
                                  mr::TaskOutput* out) -> Status {
        const size_t p = task.task_index;
        std::unique_ptr<mr::Reducer> reducer = wide.reducer();
        CallbackEmitter emitter([out](mr::KeyValue kv) -> Status {
          out->records.push_back(std::move(kv));
          return Status::OK();
        });
        if (merged_dst[p]) {
          // Merge this destination's pieces in source order: runs come
          // back sorted off disk, surviving buckets are sorted here, and
          // the loser tree breaks key ties on source index — exactly the
          // order concatenate-then-stable-sort would have produced.
          Status st;
          std::vector<std::unique_ptr<store::RecordStream>> pieces;
          for (uint32_t src = 0; src < num_partitions_ && st.ok(); ++src) {
            const SpillSlot& slot = spill_slots[src][p];
            if (!slot.path.empty()) {
              auto reader = store::RunReader::Open(slot.path);
              if (!reader.ok()) {
                st = reader.status();
                break;
              }
              pieces.push_back(std::move(reader).value());
            } else if (!shuffled[src][p].empty()) {
              mr::SortDatasetByKey(&shuffled[src][p]);
              pieces.push_back(
                  std::make_unique<mr::DatasetStream>(&shuffled[src][p]));
            }
          }
          if (st.ok()) {
            store::LoserTreeMerge merge(std::move(pieces));
            st = mr::ReduceMergedStream(reducer.get(), &merge, &emitter);
          }
          if (st.ok()) st = emitter.status();
          return st;
        }
        mr::SortDatasetByKey(&next[p]);
        Status st = reducer->Setup();
        size_t i = 0;
        // Values are views into the sorted partition's records: grouping
        // performs no per-value copies (same contract as the MR engine).
        std::vector<std::string_view> values;
        while (st.ok() && i < next[p].size()) {
          size_t j = i;
          values.clear();
          while (j < next[p].size() && next[p][j].key == next[p][i].key) {
            values.push_back(next[p][j].value);
            ++j;
          }
          st = reducer->Reduce(next[p][i].key,
                               mr::ValueList(values.data(), values.size()),
                               &emitter);
          i = j;
        }
        if (st.ok()) st = reducer->Finish(&emitter);
        if (st.ok()) st = emitter.status();
        return st;
      };
      FSJOIN_RETURN_NOT_OK(scheduler.RunStage(
          std::move(red_specs), red_body, wide.side,
          [&](const mr::TaskSpec& task, mr::TaskOutput out) -> Status {
            reduced[task.task_index] = std::move(out.records);
            return Status::OK();
          }));
      next = std::move(reduced);
      for (const mr::Dataset& p : next) {
        stage_metrics.output_records += p.size();
        stage_metrics.output_bytes += mr::DatasetBytes(p);
      }
      metrics_.wide_stages.push_back(std::move(stage_metrics));
      s = chain_end + 1;
    } else {
      for (uint32_t p = 0; p < num_partitions_; ++p) {
        next[p] = std::move(shuffled[p][0]);
      }
      s = chain_end;
    }
    partitions = std::move(next);
    for (const mr::Dataset& p : partitions) {
      metrics_.materialized_bytes += mr::DatasetBytes(p);
    }
  }

  mr::Dataset output;
  size_t total = 0;
  for (const mr::Dataset& p : partitions) total += p.size();
  output.reserve(total);
  for (mr::Dataset& p : partitions) {
    std::move(p.begin(), p.end(), std::back_inserter(output));
  }
  metrics_.output_records = output.size();
  metrics_.wall_micros = timer.ElapsedMicros();
  return output;
}

}  // namespace fsjoin::flow
