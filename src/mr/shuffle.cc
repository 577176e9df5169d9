#include "mr/shuffle.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "store/merge.h"
#include "store/run_file.h"

namespace fsjoin::mr {

uint64_t KeyTag(std::string_view key) {
  uint64_t tag = 0;
  const size_t n = std::min<size_t>(key.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    tag |= static_cast<uint64_t>(static_cast<unsigned char>(key[i]))
           << (56 - 8 * i);
  }
  return tag;
}

ShuffleShard::ShuffleShard(ShuffleShard&& other) noexcept
    : buffers_(std::move(other.buffers_)),
      refs_(std::move(other.refs_)),
      payload_bytes_(std::exchange(other.payload_bytes_, 0)),
      total_records_(std::exchange(other.total_records_, 0)),
      budget_(std::exchange(other.budget_, nullptr)),
      spill_dir_(std::move(other.spill_dir_)),
      spill_prefix_(std::move(other.spill_prefix_)),
      run_paths_(std::move(other.run_paths_)),
      live_bytes_(std::exchange(other.live_bytes_, 0)),
      spilled_bytes_(std::exchange(other.spilled_bytes_, 0)) {}

ShuffleShard& ShuffleShard::operator=(ShuffleShard&& other) noexcept {
  if (this != &other) {
    if (budget_ != nullptr && live_bytes_ > 0) budget_->Release(live_bytes_);
    buffers_ = std::move(other.buffers_);
    refs_ = std::move(other.refs_);
    payload_bytes_ = std::exchange(other.payload_bytes_, 0);
    total_records_ = std::exchange(other.total_records_, 0);
    budget_ = std::exchange(other.budget_, nullptr);
    spill_dir_ = std::move(other.spill_dir_);
    spill_prefix_ = std::move(other.spill_prefix_);
    run_paths_ = std::move(other.run_paths_);
    live_bytes_ = std::exchange(other.live_bytes_, 0);
    spilled_bytes_ = std::exchange(other.spilled_bytes_, 0);
  }
  return *this;
}

ShuffleShard::~ShuffleShard() {
  if (budget_ != nullptr && live_bytes_ > 0) budget_->Release(live_bytes_);
}

void ShuffleShard::EnableSpill(store::MemoryBudget* budget, std::string dir,
                               std::string file_prefix) {
  budget_ = budget;
  spill_dir_ = std::move(dir);
  spill_prefix_ = std::move(file_prefix);
}

Status ShuffleShard::AddBuffer(KvBuffer buffer) {
  if (buffer.empty()) return Status::OK();
  const uint32_t b = static_cast<uint32_t>(buffers_.size());
  // Geometric growth: an exact reserve per buffer would reallocate and copy
  // the whole index on every call. A single buffer still fits exactly.
  const size_t needed = refs_.size() + buffer.size();
  if (needed > refs_.capacity()) {
    refs_.reserve(std::max(needed, 2 * refs_.capacity()));
  }
  for (size_t i = 0; i < buffer.size(); ++i) {
    const std::string_view key = buffer.key(i);
    refs_.push_back(Ref{KeyTag(key), b, static_cast<uint32_t>(i),
                        static_cast<uint32_t>(key.size())});
  }
  const uint64_t bytes = buffer.PayloadBytes();
  payload_bytes_ += bytes;
  total_records_ += buffer.size();
  buffers_.push_back(std::move(buffer));
  if (budget_ != nullptr) {
    live_bytes_ += bytes;
    // Charge never fails — the arena already exists — but a false return
    // means this shard is the one asked to relieve the pressure.
    if (!budget_->Charge(bytes)) return SpillNow();
  }
  return Status::OK();
}

void ShuffleShard::Reserve(size_t num_records) { refs_.reserve(num_records); }

Status ShuffleShard::SpillNow() {
  if (refs_.empty()) return Status::OK();
  SortByKey();
  std::string path = spill_dir_ + "/" + spill_prefix_ + "-run" +
                     std::to_string(run_paths_.size()) + ".run";
  store::RunWriter writer(path);
  FSJOIN_RETURN_NOT_OK(writer.Open());
  for (size_t i = 0; i < refs_.size(); ++i) {
    FSJOIN_RETURN_NOT_OK(writer.Add(key(i), value(i)));
  }
  FSJOIN_RETURN_NOT_OK(writer.Finish());
  spilled_bytes_ += writer.payload_bytes();
  run_paths_.push_back(std::move(path));
  buffers_.clear();
  refs_.clear();
  if (budget_ != nullptr) budget_->Release(live_bytes_);
  live_bytes_ = 0;
  return Status::OK();
}

Status ShuffleShard::Seal() {
  if (run_paths_.empty() || refs_.empty()) return Status::OK();
  return SpillNow();
}

bool ShuffleShard::RefLess(const Ref& a, const Ref& b) const {
  if (a.tag != b.tag) return a.tag < b.tag;
  if (a.key_len <= 8 || b.key_len <= 8) {
    // Tag-equal with a short key on at least one side: the shorter key's
    // zero-padded 8-byte form matches the longer's first 8 bytes, meaning
    // the shorter key is a strict prefix — length alone decides the order,
    // with no arena access.
    if (a.key_len != b.key_len) return a.key_len < b.key_len;
  } else {
    // Both keys exceed the tag and agree on their first 8 bytes: compare
    // the rest.
    const std::string_view ka = buffers_[a.buffer].key(a.index);
    const std::string_view kb = buffers_[b.buffer].key(b.index);
    const int c = ka.substr(8).compare(kb.substr(8));
    if (c != 0) return c < 0;
  }
  // Equal keys: arrival order, reproducing the seed's stable_sort.
  if (a.buffer != b.buffer) return a.buffer < b.buffer;
  return a.index < b.index;
}

void ShuffleShard::SortByKey() {
  std::sort(refs_.begin(), refs_.end(),
            [this](const Ref& a, const Ref& b) { return RefLess(a, b); });
}

Status ReduceShard(Reducer* reducer, const ShuffleShard& shard, Emitter* out,
                   uint64_t* max_group_bytes) {
  if (shard.spilled()) {
    std::vector<std::unique_ptr<store::RecordStream>> sources;
    sources.reserve(shard.run_paths().size());
    for (const std::string& path : shard.run_paths()) {
      FSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<store::RunReader> reader,
                              store::RunReader::Open(path));
      sources.push_back(std::move(reader));
    }
    store::LoserTreeMerge merge(std::move(sources));
    return ReduceMergedStream(reducer, &merge, out, max_group_bytes);
  }
  FSJOIN_RETURN_NOT_OK(reducer->Setup());
  std::vector<std::string_view> values;
  const size_t n = shard.NumRecords();
  size_t i = 0;
  while (i < n) {
    const std::string_view group_key = shard.key(i);
    values.clear();
    uint64_t group_bytes = 0;
    size_t j = i;
    while (j < n && shard.key(j) == group_key) {
      values.push_back(shard.value(j));
      group_bytes += shard.RecordBytes(j);
      ++j;
    }
    if (max_group_bytes != nullptr) {
      *max_group_bytes = std::max(*max_group_bytes, group_bytes);
    }
    FSJOIN_RETURN_NOT_OK(
        reducer->Reduce(group_key, ValueList(values.data(), values.size()),
                        out));
    i = j;
  }
  return reducer->Finish(out);
}

Status ReduceMergedStream(Reducer* reducer, store::RecordStream* stream,
                          Emitter* out, uint64_t* max_group_bytes) {
  FSJOIN_RETURN_NOT_OK(reducer->Setup());
  // One arena holds the current group: its key first, then every value
  // back to back. Spans are offsets, not views — the arena may reallocate
  // while the group grows — and become views only when the group closes.
  std::string arena;
  size_t key_len = 0;
  std::vector<std::pair<size_t, size_t>> spans;  // (offset, len) into arena
  std::vector<std::string_view> values;
  uint64_t group_bytes = 0;
  bool have_group = false;

  auto flush_group = [&]() -> Status {
    values.clear();
    values.reserve(spans.size());
    for (const auto& [off, len] : spans) {
      values.emplace_back(arena.data() + off, len);
    }
    if (max_group_bytes != nullptr) {
      *max_group_bytes = std::max(*max_group_bytes, group_bytes);
    }
    return reducer->Reduce(std::string_view(arena.data(), key_len),
                           ValueList(values.data(), values.size()), out);
  };

  for (;;) {
    bool has = false;
    std::string_view key, value;
    FSJOIN_RETURN_NOT_OK(stream->Next(&has, &key, &value));
    if (!has) break;
    if (!have_group || key != std::string_view(arena.data(), key_len)) {
      if (have_group) FSJOIN_RETURN_NOT_OK(flush_group());
      arena.assign(key.data(), key.size());
      key_len = key.size();
      spans.clear();
      group_bytes = 0;
      have_group = true;
    }
    spans.emplace_back(arena.size(), value.size());
    arena.append(value);
    group_bytes += key.size() + value.size();
  }
  if (have_group) FSJOIN_RETURN_NOT_OK(flush_group());
  return reducer->Finish(out);
}

Status DatasetStream::Next(bool* has_record, std::string_view* key,
                           std::string_view* value) {
  if (pos_ >= data_->size()) {
    *has_record = false;
    return Status::OK();
  }
  const KeyValue& kv = (*data_)[pos_++];
  *key = kv.key;
  *value = kv.value;
  *has_record = true;
  return Status::OK();
}

void SortDatasetByKey(Dataset* data) {
  struct Ref {
    uint64_t tag;
    uint32_t index;
    uint32_t key_len;
  };
  const size_t n = data->size();
  std::vector<Ref> refs;
  refs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string& key = (*data)[i].key;
    refs.push_back(Ref{KeyTag(key), static_cast<uint32_t>(i),
                       static_cast<uint32_t>(key.size())});
  }
  std::sort(refs.begin(), refs.end(), [data](const Ref& a, const Ref& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    if (a.key_len <= 8 || b.key_len <= 8) {
      // See ShuffleShard::RefLess: a tag tie with a short key means the
      // shorter key is a strict prefix of the longer.
      if (a.key_len != b.key_len) return a.key_len < b.key_len;
    } else {
      const int c = std::string_view((*data)[a.index].key)
                        .substr(8)
                        .compare(std::string_view((*data)[b.index].key)
                                     .substr(8));
      if (c != 0) return c < 0;
    }
    return a.index < b.index;
  });
  Dataset sorted;
  sorted.reserve(n);
  for (const Ref& r : refs) sorted.push_back(std::move((*data)[r.index]));
  *data = std::move(sorted);
}

}  // namespace fsjoin::mr
