#include "core/segments.h"

#include <algorithm>

#include "core/pivots.h"
#include "sim/set_ops.h"
#include "util/serde.h"

namespace fsjoin {

namespace {

/// Container policy knobs. A segment keeps the plain array unless an
/// alternate form is clearly cheaper: runs win when the tokens are so
/// clustered that one run covers >= 4 tokens on average (interval merge then
/// touches 4x fewer entries than the array), bitsets when the tokens are so
/// dense that a 64-bit grid word covers >= 2 tokens on average (the words
/// cost no more memory than the array window and intersect by popcount).
/// Below kContainerMinTokens the array merge is already a handful of
/// compares and the dispatch overhead would eat any win.
constexpr uint32_t kContainerMinTokens = 16;
constexpr uint32_t kRunsMaxRatio = 4;    ///< tokens per run, at least
constexpr uint32_t kBitsetMinDensity = 2;  ///< tokens per grid word, at least

}  // namespace

const char* SegContainerName(SegContainer c) {
  switch (c) {
    case SegContainer::kArray:
      return "array";
    case SegContainer::kBitset:
      return "bitset";
    case SegContainer::kRuns:
      return "runs";
  }
  return "?";
}

void SegmentBatch::Reserve(size_t num_segments, size_t num_tokens) {
  arena_.reserve(num_tokens);
  offsets_.reserve(num_segments + 1);
  rids_.reserve(num_segments);
  record_sizes_.reserve(num_segments);
  heads_.reserve(num_segments);
}

void SegmentBatch::Append(RecordId rid, uint32_t record_size, uint32_t head,
                          const TokenRank* tokens, size_t num_tokens) {
  arena_.insert(arena_.end(), tokens, tokens + num_tokens);
  offsets_.push_back(arena_.size());
  rids_.push_back(rid);
  record_sizes_.push_back(record_size);
  heads_.push_back(head);
  sealed_ = false;
}

void SegmentBatch::Append(const SegmentRecord& record) {
  Append(record.rid, record.record_size, record.head, record.tokens.data(),
         record.tokens.size());
}

Status SegmentBatch::AppendEncoded(std::string_view data) {
  Decoder dec(data);
  uint32_t rid = 0, record_size = 0, head = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&rid));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&record_size));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&head));
  uint64_t num_tokens = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&num_tokens));
  if (num_tokens > dec.remaining()) {
    // Each token takes at least one byte, so this is malformed.
    return Status::OutOfRange("truncated segment token vector");
  }
  // No reserve here: an exact per-call reserve reallocates the whole arena
  // on every append (quadratic in the batch). Growth is geometric, or free
  // when the caller reserved the batch once up front (FilteringReducer).
  const size_t start = arena_.size();
  for (uint64_t i = 0; i < num_tokens; ++i) {
    uint32_t token = 0;
    Status st = dec.GetVarint32(&token);
    if (!st.ok()) {
      arena_.resize(start);  // leave the batch as it was before the call
      return st;
    }
    arena_.push_back(token);
  }
  if (!dec.done()) {
    arena_.resize(start);
    return Status::Internal("trailing bytes after segment record");
  }
  offsets_.push_back(arena_.size());
  rids_.push_back(rid);
  record_sizes_.push_back(record_size);
  heads_.push_back(head);
  sealed_ = false;
  return Status::OK();
}

void SegmentBatch::Seal() {
  bitmaps_.assign(size(), 0);
  // Fragment-local bucket mapping: all segments of a batch live inside one
  // pivot interval, so anchoring the 64 buckets at the observed rank range
  // keeps them information-dense (a corpus-global mapping would collapse a
  // fragment onto a handful of buckets).
  uint32_t lo = 0, hi = 0;
  bool any = false;
  for (uint32_t i = 0; i < size(); ++i) {
    const uint32_t len = length(i);
    if (len == 0) continue;
    const TokenRank* t = tokens(i);  // sorted ascending
    if (!any) {
      lo = t[0];
      hi = t[len - 1];
      any = true;
    } else {
      lo = std::min(lo, t[0]);
      hi = std::max(hi, t[len - 1]);
    }
  }
  if (any) {
    const uint32_t shift =
        BitmapShiftForSpan(static_cast<uint64_t>(hi) - lo + 1);
    for (uint32_t i = 0; i < size(); ++i) {
      bitmaps_[i] = TokenBitmap(tokens(i), length(i), lo, shift);
    }
  }
  // Container classification (policy constants at the top of this file).
  // The token array stays in the arena either way; kRuns/kBitset segments
  // additionally get a window in the shared run/bitset arena.
  containers_.assign(size(), SegContainer::kArray);
  bitset_arena_.clear();
  bitset_offsets_.assign(size(), 0);
  bitset_word0_.assign(size(), 0);
  bitset_num_words_.assign(size(), 0);
  runs_arena_.clear();
  run_offsets_.assign(size(), 0);
  run_counts_.assign(size(), 0);
  for (uint32_t i = 0; i < size(); ++i) {
    const uint32_t len = length(i);
    if (len < kContainerMinTokens) continue;
    const TokenRank* t = tokens(i);
    const size_t nruns = CountTokenRuns(t, len);
    if (nruns * kRunsMaxRatio <= len) {
      containers_[i] = SegContainer::kRuns;
      run_offsets_[i] = static_cast<uint32_t>(runs_arena_.size());
      run_counts_[i] = static_cast<uint32_t>(nruns);
      AppendTokenRuns(t, len, &runs_arena_);
      continue;
    }
    const uint32_t word0 = t[0] / 64;
    const uint32_t nwords = t[len - 1] / 64 - word0 + 1;
    if (nwords * kBitsetMinDensity <= len) {
      containers_[i] = SegContainer::kBitset;
      bitset_offsets_[i] = static_cast<uint32_t>(bitset_arena_.size());
      bitset_word0_[i] = word0;
      bitset_num_words_[i] = nwords;
      bitset_arena_.resize(bitset_arena_.size() + nwords, 0);
      uint64_t* words = bitset_arena_.data() + bitset_offsets_[i];
      for (uint32_t k = 0; k < len; ++k) {
        words[t[k] / 64 - word0] |= uint64_t{1} << (t[k] % 64);
      }
    }
  }
  sealed_ = true;
  side_tagged_ = false;
  probe_side_.clear();
  probe_rows_.clear();
  build_rows_.clear();
}

void SegmentBatch::TagSides(RecordId boundary) {
  probe_side_.assign(size(), 0);
  probe_rows_.clear();
  build_rows_.clear();
  for (uint32_t i = 0; i < size(); ++i) {
    if (rids_[i] < boundary) {
      probe_side_[i] = 1;
      probe_rows_.push_back(i);
    } else {
      build_rows_.push_back(i);
    }
  }
  side_tagged_ = true;
}

SegmentBatch SegmentBatch::FromRecords(
    const std::vector<SegmentRecord>& records) {
  SegmentBatch batch;
  size_t total = 0;
  for (const SegmentRecord& r : records) total += r.tokens.size();
  batch.Reserve(records.size(), total);
  for (const SegmentRecord& r : records) batch.Append(r);
  batch.Seal();
  return batch;
}

SegmentSplit SplitIntoSegments(const OrderedRecord& record,
                               const std::vector<TokenRank>& pivots) {
  SegmentSplit split;
  const std::vector<TokenRank>& tokens = record.tokens;
  size_t i = 0;
  while (i < tokens.size()) {
    const uint32_t fragment = SegmentOfRank(pivots, tokens[i]);
    // End of this fragment's rank range (exclusive); the last fragment is
    // unbounded.
    size_t j = i;
    if (fragment < pivots.size()) {
      const TokenRank limit = pivots[fragment];
      while (j < tokens.size() && tokens[j] < limit) ++j;
    } else {
      j = tokens.size();
    }
    SegmentRecord seg;
    seg.rid = record.id;
    seg.record_size = static_cast<uint32_t>(tokens.size());
    seg.head = static_cast<uint32_t>(i);
    seg.tokens.assign(tokens.begin() + i, tokens.begin() + j);
    split.fragment_ids.push_back(fragment);
    split.segments.push_back(std::move(seg));
    i = j;
  }
  return split;
}

void EncodeSegment(const SegmentRecord& segment, std::string* out) {
  PutVarint32(out, segment.rid);
  PutVarint32(out, segment.record_size);
  PutVarint32(out, segment.head);
  PutUint32Vector(out, segment.tokens);
}

Status DecodeSegment(std::string_view data, SegmentRecord* segment) {
  Decoder dec(data);
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&segment->rid));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&segment->record_size));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&segment->head));
  FSJOIN_RETURN_NOT_OK(dec.GetUint32Vector(&segment->tokens));
  if (!dec.done()) {
    return Status::Internal("trailing bytes after segment record");
  }
  return Status::OK();
}

}  // namespace fsjoin
