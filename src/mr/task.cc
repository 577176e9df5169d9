#include "mr/task.h"

#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

#include "mr/shuffle.h"
#include "store/merge.h"
#include "store/run_file.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/timer.h"

namespace fsjoin::mr {

namespace {

/// Emitter that routes pairs into per-reduce-partition arenas and counts
/// them. One instance per map task (single-threaded within the task).
class PartitionedEmitter : public Emitter {
 public:
  PartitionedEmitter(const Partitioner& partitioner, uint32_t num_partitions)
      : partitioner_(partitioner), buffers_(num_partitions) {}

  void Emit(std::string_view key, std::string_view value) override {
    uint32_t p =
        partitioner_.Partition(key, static_cast<uint32_t>(buffers_.size()));
    FSJOIN_CHECK(p < buffers_.size());
    records_ += 1;
    bytes_ += key.size() + value.size();
    buffers_[p].Append(key, value);
  }

  std::vector<KvBuffer>& buffers() { return buffers_; }
  uint64_t records() const { return records_; }
  uint64_t bytes() const { return bytes_; }

 private:
  const Partitioner& partitioner_;
  std::vector<KvBuffer> buffers_;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, TaskFactoryFn> factories;
};

Registry& TaskRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

/// Group shape discriminant in the .res record.
enum ResultGroupKind : uint32_t {
  kGroupPartitions = 0,
  kGroupBuckets = 1,
  kGroupRecords = 2,
};

void EncodeMetrics(const TaskMetrics& tm, std::string* dst) {
  PutVarint64(dst, static_cast<uint64_t>(tm.wall_micros));
  PutVarint64(dst, tm.input_records);
  PutVarint64(dst, tm.input_bytes);
  PutVarint64(dst, tm.output_records);
  PutVarint64(dst, tm.output_bytes);
  PutVarint64(dst, tm.max_group_bytes);
  PutVarint64(dst, tm.spilled_bytes);
  PutVarint32(dst, tm.spill_runs);
  PutVarint32(dst, tm.shuffle_connects);
}

Status DecodeMetrics(Decoder* dec, TaskMetrics* tm) {
  uint64_t wall = 0;
  FSJOIN_RETURN_NOT_OK(dec->GetVarint64(&wall));
  tm->wall_micros = static_cast<int64_t>(wall);
  FSJOIN_RETURN_NOT_OK(dec->GetVarint64(&tm->input_records));
  FSJOIN_RETURN_NOT_OK(dec->GetVarint64(&tm->input_bytes));
  FSJOIN_RETURN_NOT_OK(dec->GetVarint64(&tm->output_records));
  FSJOIN_RETURN_NOT_OK(dec->GetVarint64(&tm->output_bytes));
  FSJOIN_RETURN_NOT_OK(dec->GetVarint64(&tm->max_group_bytes));
  FSJOIN_RETURN_NOT_OK(dec->GetVarint64(&tm->spilled_bytes));
  FSJOIN_RETURN_NOT_OK(dec->GetVarint32(&tm->spill_runs));
  FSJOIN_RETURN_NOT_OK(dec->GetVarint32(&tm->shuffle_connects));
  return Status::OK();
}

}  // namespace

const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kMap:
      return "map";
    case TaskKind::kReduce:
      return "reduce";
  }
  return "?";
}

const std::string& TaskSpec::payload_bytes() const {
  static const std::string* const kEmpty = new std::string();
  return payload != nullptr ? *payload : *kEmpty;
}

void TaskSpec::EncodeTo(std::string* dst) const {
  PutLengthPrefixed(dst, job_name);
  PutVarint32(dst, static_cast<uint32_t>(kind));
  PutVarint32(dst, task_index);
  PutVarint32(dst, num_partitions);
  PutVarint64(dst, input_begin);
  PutVarint64(dst, input_end);
  PutVarint32(dst, static_cast<uint32_t>(input_runs.size()));
  for (const std::string& run : input_runs) PutLengthPrefixed(dst, run);
  PutLengthPrefixed(dst, output_base);
  PutLengthPrefixed(dst, factory);
  PutLengthPrefixed(dst, payload_bytes());
  PutVarint32(dst, attempt);
  PutVarint32(dst, retain_shuffle ? 1 : 0);
  PutVarint32(dst, static_cast<uint32_t>(shuffle_sources.size()));
  for (const ShuffleSource& src : shuffle_sources) {
    PutLengthPrefixed(dst, src.job);
    PutVarint32(dst, src.map_task);
    PutLengthPrefixed(dst, src.endpoint);
  }
}

Result<TaskSpec> TaskSpec::Decode(std::string_view data) {
  Decoder dec(data);
  TaskSpec spec;
  std::string_view view;
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&view));
  spec.job_name = std::string(view);
  uint32_t kind = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&kind));
  if (kind > static_cast<uint32_t>(TaskKind::kReduce)) {
    return Status::Corruption("task spec: bad kind " + std::to_string(kind));
  }
  spec.kind = static_cast<TaskKind>(kind);
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&spec.task_index));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&spec.num_partitions));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&spec.input_begin));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&spec.input_end));
  uint32_t num_runs = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&num_runs));
  spec.input_runs.reserve(num_runs);
  for (uint32_t i = 0; i < num_runs; ++i) {
    FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&view));
    spec.input_runs.emplace_back(view);
  }
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&view));
  spec.output_base = std::string(view);
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&view));
  spec.factory = std::string(view);
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&view));
  spec.payload = std::make_shared<const std::string>(view);
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&spec.attempt));
  uint32_t retain = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&retain));
  if (retain > 1) {
    return Status::Corruption("task spec: bad retain-shuffle flag " +
                              std::to_string(retain));
  }
  spec.retain_shuffle = retain == 1;
  uint32_t num_sources = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&num_sources));
  spec.shuffle_sources.reserve(num_sources);
  for (uint32_t i = 0; i < num_sources; ++i) {
    ShuffleSource src;
    FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&view));
    src.job = std::string(view);
    FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&src.map_task));
    FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&view));
    src.endpoint = std::string(view);
    spec.shuffle_sources.push_back(std::move(src));
  }
  if (!dec.done()) {
    return Status::Corruption("task spec: trailing bytes");
  }
  return spec;
}

bool RegisterTaskFactory(const std::string& name, TaskFactoryFn fn) {
  Registry& registry = TaskRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.factories.emplace(name, std::move(fn)).second;
}

bool HasTaskFactory(const std::string& name) {
  Registry& registry = TaskRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.factories.count(name) > 0;
}

Result<TaskFactories> ResolveTaskFactory(const std::string& name,
                                         const std::string& payload) {
  TaskFactoryFn fn;
  {
    Registry& registry = TaskRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.factories.find(name);
    if (it == registry.factories.end()) {
      return Status::NotFound("task factory not registered: " + name);
    }
    fn = it->second;
  }
  return fn(payload);
}

Status ExecuteMapTask(const TaskSpec& spec, const TaskFactories& factories,
                      const KeyValue* input, size_t count, TaskOutput* out) {
  WallTimer timer;
  std::shared_ptr<const Partitioner> partitioner = factories.partitioner;
  if (partitioner == nullptr) partitioner = std::make_shared<HashPartitioner>();

  std::unique_ptr<Mapper> mapper = factories.mapper();
  PartitionedEmitter emitter(*partitioner, spec.num_partitions);
  Status st = mapper->Setup();
  uint64_t in_bytes = 0;
  for (size_t i = 0; st.ok() && i < count; ++i) {
    in_bytes += input[i].SizeBytes();
    st = mapper->Map(input[i], &emitter);
  }
  if (st.ok()) st = mapper->Finish(&emitter);
  FSJOIN_RETURN_NOT_OK(st);

  out->partitions = std::move(emitter.buffers());
  TaskMetrics& tm = out->metrics;
  tm.wall_micros = timer.ElapsedMicros();
  tm.input_records = count;
  tm.input_bytes = in_bytes;
  tm.output_records = emitter.records();
  tm.output_bytes = emitter.bytes();
  return Status::OK();
}

Status ExecuteReduceTaskFromRuns(const TaskSpec& spec,
                                 const TaskFactories& factories,
                                 TaskOutput* out) {
  WallTimer timer;
  TaskMetrics& tm = out->metrics;
  std::vector<std::unique_ptr<store::RecordStream>> sources;
  sources.reserve(spec.input_runs.size());
  for (const std::string& path : spec.input_runs) {
    FSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<store::RunReader> reader,
                            store::RunReader::Open(path));
    tm.input_records += reader->records();
    tm.input_bytes += reader->payload_bytes();
    sources.push_back(std::move(reader));
  }

  VectorEmitter emit(&out->records);
  std::unique_ptr<Reducer> reducer = factories.reducer();
  Status st;
  if (sources.empty()) {
    st = reducer->Setup();
    if (st.ok()) st = reducer->Finish(&emit);
  } else {
    store::LoserTreeMerge merge(std::move(sources));
    st = ReduceMergedStream(reducer.get(), &merge, &emit, &tm.max_group_bytes);
  }
  FSJOIN_RETURN_NOT_OK(st);

  tm.wall_micros = timer.ElapsedMicros();
  tm.output_records = emit.records();
  tm.output_bytes = emit.bytes();
  return Status::OK();
}

Status WriteTaskOutputFiles(const std::string& base, const TaskOutput& out) {
  // base.dat: every record of every group, concatenated in group order.
  // Not key-sorted in general — the run framing is used for its CRC'd
  // transport, and ReadTaskOutputFiles restores the exact order.
  store::RunWriter data(base + ".dat");
  FSJOIN_RETURN_NOT_OK(data.Open());

  std::string result;
  if (!out.buckets.empty()) {
    PutVarint32(&result, kGroupBuckets);
    PutVarint32(&result, static_cast<uint32_t>(out.buckets.size()));
    for (const Dataset& bucket : out.buckets) {
      PutVarint64(&result, bucket.size());
      for (const KeyValue& kv : bucket) {
        FSJOIN_RETURN_NOT_OK(data.Add(kv.key, kv.value));
      }
    }
  } else if (!out.partitions.empty()) {
    PutVarint32(&result, kGroupPartitions);
    PutVarint32(&result, static_cast<uint32_t>(out.partitions.size()));
    for (const KvBuffer& buffer : out.partitions) {
      PutVarint64(&result, buffer.size());
      for (size_t i = 0; i < buffer.size(); ++i) {
        FSJOIN_RETURN_NOT_OK(data.Add(buffer.key(i), buffer.value(i)));
      }
    }
  } else {
    PutVarint32(&result, kGroupRecords);
    PutVarint32(&result, 1);
    PutVarint64(&result, out.records.size());
    for (const KeyValue& kv : out.records) {
      FSJOIN_RETURN_NOT_OK(data.Add(kv.key, kv.value));
    }
  }
  FSJOIN_RETURN_NOT_OK(data.Finish());

  // base.res: one-record run whose value is the result footer — group
  // shape, per-group counts, metrics and side-channel bytes — integrity-
  // checked by the run file's own frame CRC + footer.
  EncodeMetrics(out.metrics, &result);
  PutLengthPrefixed(&result, out.side_state);
  store::RunWriter res(base + ".res");
  FSJOIN_RETURN_NOT_OK(res.Open());
  FSJOIN_RETURN_NOT_OK(res.Add("res", result));
  return res.Finish();
}

Status ReadTaskOutputFiles(const std::string& base, TaskOutput* out) {
  std::string result;
  {
    FSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<store::RunReader> res,
                            store::RunReader::Open(base + ".res"));
    bool has = false;
    std::string_view key, value;
    FSJOIN_RETURN_NOT_OK(res->Next(&has, &key, &value));
    if (!has || key != "res") {
      return Status::Corruption("task result " + base + ".res: bad record");
    }
    result = std::string(value);
    FSJOIN_RETURN_NOT_OK(res->Next(&has, &key, &value));
    if (has) {
      return Status::Corruption("task result " + base +
                                ".res: trailing records");
    }
  }

  Decoder dec(result);
  uint32_t group_kind = 0;
  uint32_t num_groups = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&group_kind));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&num_groups));
  if (group_kind > kGroupRecords) {
    return Status::Corruption("task result: bad group kind");
  }
  std::vector<uint64_t> counts(num_groups, 0);
  for (uint64_t& c : counts) FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c));
  FSJOIN_RETURN_NOT_OK(DecodeMetrics(&dec, &out->metrics));
  std::string_view side;
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&side));
  out->side_state = std::string(side);
  if (!dec.done()) {
    return Status::Corruption("task result: trailing bytes");
  }

  FSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<store::RunReader> data,
                          store::RunReader::Open(base + ".dat"));
  auto next = [&](std::string_view* key, std::string_view* value) -> Status {
    bool has = false;
    FSJOIN_RETURN_NOT_OK(data->Next(&has, key, value));
    if (!has) {
      return Status::Corruption("task data " + base +
                                ".dat: fewer records than result footer");
    }
    return Status::OK();
  };
  std::string_view key, value;
  if (group_kind == kGroupPartitions) {
    out->partitions.resize(num_groups);
    for (uint32_t g = 0; g < num_groups; ++g) {
      for (uint64_t i = 0; i < counts[g]; ++i) {
        FSJOIN_RETURN_NOT_OK(next(&key, &value));
        out->partitions[g].Append(key, value);
      }
    }
  } else if (group_kind == kGroupBuckets) {
    out->buckets.resize(num_groups);
    for (uint32_t g = 0; g < num_groups; ++g) {
      out->buckets[g].reserve(counts[g]);
      for (uint64_t i = 0; i < counts[g]; ++i) {
        FSJOIN_RETURN_NOT_OK(next(&key, &value));
        out->buckets[g].push_back(KeyValue{std::string(key),
                                           std::string(value)});
      }
    }
  } else {
    if (num_groups != 1) {
      return Status::Corruption("task result: record output needs 1 group");
    }
    out->records.reserve(counts[0]);
    for (uint64_t i = 0; i < counts[0]; ++i) {
      FSJOIN_RETURN_NOT_OK(next(&key, &value));
      out->records.push_back(KeyValue{std::string(key), std::string(value)});
    }
  }
  bool has = false;
  FSJOIN_RETURN_NOT_OK(data->Next(&has, &key, &value));
  if (has) {
    return Status::Corruption("task data " + base +
                              ".dat: more records than result footer");
  }
  return Status::OK();
}

void EncodeTaskOutputWire(const TaskOutput& out, std::string* dst) {
  // Same footer layout as the .res file, followed by the data records
  // inline (the frame's payload CRC plays the run file's role).
  if (!out.buckets.empty()) {
    PutVarint32(dst, kGroupBuckets);
    PutVarint32(dst, static_cast<uint32_t>(out.buckets.size()));
    for (const Dataset& bucket : out.buckets) {
      PutVarint64(dst, bucket.size());
    }
  } else if (!out.partitions.empty()) {
    PutVarint32(dst, kGroupPartitions);
    PutVarint32(dst, static_cast<uint32_t>(out.partitions.size()));
    for (const KvBuffer& buffer : out.partitions) {
      PutVarint64(dst, buffer.size());
    }
  } else {
    PutVarint32(dst, kGroupRecords);
    PutVarint32(dst, 1);
    PutVarint64(dst, out.records.size());
  }
  EncodeMetrics(out.metrics, dst);
  PutLengthPrefixed(dst, out.side_state);
  PutVarint32(dst, static_cast<uint32_t>(out.partition_stats.size()));
  for (const PartitionStat& stat : out.partition_stats) {
    PutVarint64(dst, stat.records);
    PutVarint64(dst, stat.bytes);
  }
  PutLengthPrefixed(dst, out.shuffle_endpoint);
  for (const Dataset& bucket : out.buckets) {
    for (const KeyValue& kv : bucket) {
      PutLengthPrefixed(dst, kv.key);
      PutLengthPrefixed(dst, kv.value);
    }
  }
  for (const KvBuffer& buffer : out.partitions) {
    for (size_t i = 0; i < buffer.size(); ++i) {
      PutLengthPrefixed(dst, buffer.key(i));
      PutLengthPrefixed(dst, buffer.value(i));
    }
  }
  for (const KeyValue& kv : out.records) {
    PutLengthPrefixed(dst, kv.key);
    PutLengthPrefixed(dst, kv.value);
  }
}

Status DecodeTaskOutputWire(std::string_view data, TaskOutput* out) {
  Decoder dec(data);
  uint32_t group_kind = 0;
  uint32_t num_groups = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&group_kind));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&num_groups));
  if (group_kind > kGroupRecords) {
    return Status::Corruption("task result wire: bad group kind");
  }
  std::vector<uint64_t> counts(num_groups, 0);
  for (uint64_t& c : counts) FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c));
  FSJOIN_RETURN_NOT_OK(DecodeMetrics(&dec, &out->metrics));
  std::string_view view;
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&view));
  out->side_state = std::string(view);
  uint32_t num_stats = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&num_stats));
  out->partition_stats.resize(num_stats);
  for (PartitionStat& stat : out->partition_stats) {
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&stat.records));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&stat.bytes));
  }
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&view));
  out->shuffle_endpoint = std::string(view);

  auto next = [&](std::string_view* key, std::string_view* value) -> Status {
    FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(key));
    return dec.GetLengthPrefixed(value);
  };
  std::string_view key, value;
  if (group_kind == kGroupPartitions) {
    out->partitions.resize(num_groups);
    for (uint32_t g = 0; g < num_groups; ++g) {
      for (uint64_t i = 0; i < counts[g]; ++i) {
        FSJOIN_RETURN_NOT_OK(next(&key, &value));
        out->partitions[g].Append(key, value);
      }
    }
  } else if (group_kind == kGroupBuckets) {
    out->buckets.resize(num_groups);
    for (uint32_t g = 0; g < num_groups; ++g) {
      out->buckets[g].reserve(counts[g]);
      for (uint64_t i = 0; i < counts[g]; ++i) {
        FSJOIN_RETURN_NOT_OK(next(&key, &value));
        out->buckets[g].push_back(KeyValue{std::string(key),
                                           std::string(value)});
      }
    }
  } else {
    if (num_groups != 1) {
      return Status::Corruption("task result wire: record output needs 1 group");
    }
    out->records.reserve(counts[0]);
    for (uint64_t i = 0; i < counts[0]; ++i) {
      FSJOIN_RETURN_NOT_OK(next(&key, &value));
      out->records.push_back(KeyValue{std::string(key), std::string(value)});
    }
  }
  if (!dec.done()) {
    return Status::Corruption("task result wire: trailing bytes");
  }
  return Status::OK();
}

Status WriteTaskError(const std::string& base, const Status& error) {
  std::string encoded;
  PutVarint32(&encoded, static_cast<uint32_t>(error.code()));
  PutLengthPrefixed(&encoded, error.message());
  const std::string path = base + ".err";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path);
  }
  const size_t written = std::fwrite(encoded.data(), 1, encoded.size(), file);
  const bool ok = written == encoded.size() && std::fclose(file) == 0;
  return ok ? Status::OK() : Status::IoError("short write to " + path);
}

Status ReadTaskError(const std::string& base, Status* error) {
  const std::string path = base + ".err";
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path);
  }
  std::string encoded;
  char buf[512];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    encoded.append(buf, n);
  }
  std::fclose(file);
  Decoder dec(encoded);
  uint32_t code = 0;
  std::string_view message;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&code));
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&message));
  if (code > static_cast<uint32_t>(StatusCode::kCorruption) || code == 0) {
    return Status::Corruption("task error file " + path + ": bad code");
  }
  *error = Status(static_cast<StatusCode>(code), std::string(message));
  return Status::OK();
}

}  // namespace fsjoin::mr
