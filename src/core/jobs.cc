#include "core/jobs.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "core/segments.h"
#include "exec/backend.h"
#include "mr/task.h"
#include "util/serde.h"

namespace fsjoin {

namespace {

// ---- Ordering job ------------------------------------------------------

/// Appends one (gap, count) pair of a packed ordering-block value, where
/// gap = offset - prev - 1. `prev` is the previous offset appended to this
/// value, or -1 before the first pair.
void PutBlockCount(std::string* value, int64_t* prev, uint32_t offset,
                   uint64_t count) {
  PutVarint32(value, static_cast<uint32_t>(offset - *prev - 1));
  PutVarint64(value, count);
  *prev = offset;
}

/// Decodes a packed ordering-block value, calling fn(offset, count) for
/// each pair. Offsets strictly ascend and stay below the block width, so a
/// token can appear at most once per value; anything else is Corruption.
template <typename Fn>
Status ForEachBlockCount(std::string_view value, Fn&& fn) {
  Decoder dec(value);
  uint64_t next = 0;  // smallest offset the next pair may carry
  while (!dec.done()) {
    uint32_t gap = 0;
    uint64_t count = 0;
    if (!dec.GetVarint32(&gap).ok() || !dec.GetVarint64(&count).ok()) {
      return Status::Corruption("ordering block: truncated count pair");
    }
    const uint64_t offset = next + gap;
    if (offset >= kOrderingBlockWidth) {
      return Status::Corruption("ordering block: offset " +
                                std::to_string(offset) +
                                " outside the block width");
    }
    FSJOIN_RETURN_NOT_OK(fn(static_cast<uint32_t>(offset), count));
    next = offset + 1;
  }
  return Status::OK();
}

/// Parses a 4-byte big-endian ordering-block key.
Status DecodeBlockKey(std::string_view key, uint32_t* block) {
  Decoder dec(key);
  if (!dec.GetFixed32BE(block).ok() || !dec.done()) {
    return Status::Corruption("ordering block: key is not 4 bytes");
  }
  return Status::OK();
}

/// In-mapper combining: collects every token of the split, then emits one
/// packed record per token block in Finish — sort plus run-length, so the
/// cost follows the split's size, not the vocabulary's.
class OrderingMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* /*out*/) override {
    RecordId rid = 0;
    FSJOIN_RETURN_NOT_OK(DecodeCorpusRecord(record, &rid, &record_tokens_));
    tokens_.insert(tokens_.end(), record_tokens_.begin(),
                   record_tokens_.end());
    return Status::OK();
  }

  Status Finish(mr::Emitter* out) override {
    std::sort(tokens_.begin(), tokens_.end());
    std::string key, value;
    uint32_t block = 0;
    int64_t prev = -1;
    auto flush = [&] {
      if (value.empty()) return;
      key.clear();
      PutFixed32BE(&key, block);
      out->Emit(key, value);
      value.clear();
      prev = -1;
    };
    for (size_t i = 0; i < tokens_.size();) {
      const TokenId t = tokens_[i];
      size_t j = i + 1;
      while (j < tokens_.size() && tokens_[j] == t) ++j;
      if (t / kOrderingBlockWidth != block) {
        flush();
        block = t / kOrderingBlockWidth;
      }
      PutBlockCount(&value, &prev, t % kOrderingBlockWidth, j - i);
      i = j;
    }
    flush();
    return Status::OK();
  }

 private:
  std::vector<TokenId> tokens_;         ///< every token of the split
  std::vector<TokenId> record_tokens_;  ///< decode scratch
};

/// Sums one block's packed counts from every map task into a dense array
/// and emits them as one packed record.
class OrderingReducer : public mr::Reducer {
 public:
  OrderingReducer() : counts_(kOrderingBlockWidth, 0) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    uint32_t block = 0;
    FSJOIN_RETURN_NOT_OK(DecodeBlockKey(key, &block));
    for (std::string_view v : values) {
      FSJOIN_RETURN_NOT_OK(
          ForEachBlockCount(v, [this](uint32_t offset, uint64_t count) {
            uint64_t& total = counts_[offset];
            if (count > std::numeric_limits<uint64_t>::max() - total) {
              return Status::Corruption("ordering block: count overflow");
            }
            total += count;
            return Status::OK();
          }));
    }
    std::string value;
    int64_t prev = -1;
    for (uint32_t offset = 0; offset < kOrderingBlockWidth; ++offset) {
      if (counts_[offset] == 0) continue;
      PutBlockCount(&value, &prev, offset, counts_[offset]);
      counts_[offset] = 0;
    }
    out->Emit(key, value);
    return Status::OK();
  }

 private:
  std::vector<uint64_t> counts_;  ///< zero between Reduce calls
};

// ---- Filtering job -----------------------------------------------------

class FilteringMapper : public mr::Mapper {
 public:
  explicit FilteringMapper(std::shared_ptr<FilteringContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Setup() override {
    if (ctx_->order == nullptr) {
      // Payload-built context: only mappers ever decode the ordering.
      FSJOIN_ASSIGN_OR_RETURN(GlobalOrder order,
                              GlobalOrder::DecodeRanks(ctx_->order_ranks));
      decoded_order_ = std::make_unique<const GlobalOrder>(std::move(order));
      order_ = decoded_order_.get();
    } else {
      order_ = ctx_->order.get();
    }
    return Status::OK();
  }

  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    RecordId rid = 0;
    std::vector<TokenId> tokens;
    FSJOIN_RETURN_NOT_OK(DecodeCorpusRecord(record, &rid, &tokens));

    // Sort the record by the global ordering (paper: mapper-side sort).
    OrderedRecord ordered;
    ordered.id = rid;
    ordered.tokens.reserve(tokens.size());
    for (TokenId t : tokens) {
      if (t >= order_->NumTokens()) {
        return Status::Internal("token id outside the global ordering");
      }
      ordered.tokens.push_back(order_->RankOf(t));
    }
    std::sort(ordered.tokens.begin(), ordered.tokens.end());

    const uint32_t len = static_cast<uint32_t>(ordered.Size());
    SegmentSplit split = SplitIntoSegments(ordered, ctx_->pivots);
    if (ctx_->split_fragment.empty()) {
      const std::vector<uint32_t> groups = ctx_->horizontal.GroupsOf(len);
      for (uint32_t h : groups) {
        for (size_t i = 0; i < split.segments.size(); ++i) {
          std::string key;
          PutFixed32BE(&key, h);
          PutFixed32BE(&key, split.fragment_ids[i]);
          std::string value;
          EncodeSegment(split.segments[i], &value);
          out->Emit(std::move(key), std::move(value));
        }
      }
      return Status::OK();
    }
    // Skew-triggered splitting (--auto): only fragments flagged heavy pay
    // the horizontal duplication; light fragments route to group 0, where
    // the reducer joins every pair (no band dedup needed — one group means
    // one chance per pair).
    std::vector<uint32_t> groups;  // computed lazily for the first heavy hit
    for (size_t i = 0; i < split.segments.size(); ++i) {
      const uint32_t v = split.fragment_ids[i];
      std::string value;
      EncodeSegment(split.segments[i], &value);
      if (v < ctx_->split_fragment.size() && ctx_->split_fragment[v] != 0) {
        if (groups.empty()) groups = ctx_->horizontal.GroupsOf(len);
        for (uint32_t h : groups) {
          std::string key;
          PutFixed32BE(&key, h);
          PutFixed32BE(&key, v);
          out->Emit(std::move(key), value);
        }
      } else {
        std::string key;
        PutFixed32BE(&key, uint32_t{0});
        PutFixed32BE(&key, v);
        out->Emit(std::move(key), std::move(value));
      }
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<FilteringContext> ctx_;
  /// Payload-built contexts only: this task's decoded ordering.
  std::unique_ptr<const GlobalOrder> decoded_order_;
  const GlobalOrder* order_ = nullptr;  ///< set by Setup
};

class FilteringReducer : public mr::Reducer {
 public:
  explicit FilteringReducer(std::shared_ptr<FilteringContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    Decoder key_dec(key);
    uint32_t group = 0, fragment = 0;
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&group));
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&fragment));

    // Columnar build: shuffle values decode straight into one flat token
    // arena — no per-segment token vector is ever allocated. Every varint
    // token takes at least one byte, so the summed value bytes bound the
    // token count: one reserve, and the arena never reallocates.
    size_t value_bytes = 0;
    for (std::string_view v : values) value_bytes += v.size();
    SegmentBatch batch;
    batch.Reserve(values.size(), value_bytes);
    for (std::string_view v : values) {
      FSJOIN_RETURN_NOT_OK(batch.AppendEncoded(v));
    }
    batch.Seal();

    FragmentJoinOptions opts;
    const FsJoinConfig& cfg = ctx_->config;
    if (cfg.rs_boundary.has_value()) {
      // Side-tag the fragment so the join loops enumerate only cross-side
      // pairs (probe R rows against build S rows; see DESIGN.md §5k).
      batch.TagSides(*cfg.rs_boundary);
      opts.rs_boundary = cfg.rs_boundary;
    }
    opts.function = cfg.function;
    opts.theta = cfg.theta;
    opts.method = cfg.join_method;
    opts.aggressive_segment_prefix = cfg.aggressive_segment_prefix;
    opts.use_length_filter = cfg.use_length_filter;
    opts.use_segment_length_filter = cfg.use_segment_length_filter;
    opts.use_segment_intersection_filter = cfg.use_segment_intersection_filter;
    opts.use_segment_difference_filter = cfg.use_segment_difference_filter;
    opts.kernel = cfg.exec.kernel;
    if (cfg.exec.auto_tune &&
        (ctx_->auto_choose_method || ctx_->auto_choose_kernel) &&
        !batch.empty()) {
      // Per-fragment decision at Seal time: the shape aggregates are
      // permutation-invariant over the fragment's segments, so the choice
      // is identical on every backend, runner and thread count.
      tune::FragmentShape shape;
      shape.num_segments = batch.size();
      shape.total_tokens = batch.total_tokens();
      for (uint32_t i = 0; i < batch.size(); ++i) {
        shape.max_segment_len = std::max(shape.max_segment_len,
                                         batch.length(i));
      }
      if (batch.side_tagged()) {
        // R-S fragments are asymmetric: the cost model sees probe x build,
        // not n-choose-2 (tune/decision.h).
        shape.probe_segments =
            static_cast<uint32_t>(batch.probe_rows().size());
        shape.build_segments =
            static_cast<uint32_t>(batch.build_rows().size());
      }
      const tune::FragmentPlan plan =
          tune::ChooseFragmentPlan(shape, ctx_->policy);
      if (ctx_->auto_choose_method) opts.method = plan.method;
      if (ctx_->auto_choose_kernel) opts.kernel = plan.kernel;
      std::lock_guard<std::mutex> lock(ctx_->mu);
      ++ctx_->auto_method_counts[static_cast<int>(opts.method)];
      ++ctx_->auto_kernel_counts[static_cast<int>(
          exec::ResolveKernelMode(opts.kernel))];
    }

    const HorizontalScheme* horizontal = &ctx_->horizontal;
    // Light fragments under skew-triggered splitting carry one length
    // group, so every pair is joined where it lands (see FilteringMapper).
    // Same-side R-S pairs need no rule here: the side-tagged join loops
    // never enumerate them in the first place.
    const bool use_scheme =
        ctx_->split_fragment.empty() ||
        (fragment < ctx_->split_fragment.size() &&
         ctx_->split_fragment[fragment] != 0);
    opts.pair_allowed = [group, horizontal, use_scheme](
                            const SegmentView& a, const SegmentView& b) {
      if (a.rid == b.rid) return false;
      if (!use_scheme) return true;
      return horizontal->ShouldJoinInGroup(group, a.record_size,
                                           b.record_size);
    };
    if (ctx_->join_pool != nullptr && cfg.exec.parallel_fragment_join) {
      opts.morsel_pool = ctx_->join_pool.get();
      opts.morsel_size = cfg.exec.join_morsel_size;
    }

    std::vector<PartialOverlap> partials;
    FilterCounters counters;
    JoinFragmentBatch(batch, opts, &partials, &counters);
    {
      std::lock_guard<std::mutex> lock(ctx_->mu);
      ctx_->totals.Add(counters);
      if (cfg.collect_partial_overlaps) {
        ctx_->captured_partials.insert(ctx_->captured_partials.end(),
                                       partials.begin(), partials.end());
      }
    }

    for (const PartialOverlap& p : partials) {
      std::string out_key, out_value;
      EncodePartialOverlap(p, &out_key, &out_value);
      out->Emit(std::move(out_key), std::move(out_value));
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<FilteringContext> ctx_;
};

// ---- Verification job --------------------------------------------------

class IdentityMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    out->Emit(record.key, record.value);
    return Status::OK();
  }
};

class VerificationReducer : public mr::Reducer {
 public:
  explicit VerificationReducer(std::shared_ptr<VerificationContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    uint64_t total_overlap = 0;
    uint64_t size_a = 0, size_b = 0;
    for (std::string_view v : values) {
      Decoder dec(v);
      uint64_t c = 0, la = 0, lb = 0;
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&la));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&lb));
      total_overlap += c;
      size_a = la;
      size_b = lb;
    }
    ++local_candidates_;
    const FsJoinConfig& cfg = ctx_->config;
    if (PassesThreshold(cfg.function, total_overlap, size_a, size_b,
                        cfg.theta)) {
      double sim =
          ComputeSimilarity(cfg.function, total_overlap, size_a, size_b);
      std::string value;
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(sim));
      std::memcpy(&bits, &sim, sizeof(bits));
      PutFixed64BE(&value, bits);
      out->Emit(key, std::move(value));
    }
    return Status::OK();
  }

  Status Finish(mr::Emitter* out) override {
    (void)out;
    std::lock_guard<std::mutex> lock(ctx_->mu);
    ctx_->candidate_pairs += local_candidates_;
    return Status::OK();
  }

 private:
  std::shared_ptr<VerificationContext> ctx_;
  uint64_t local_candidates_ = 0;
};

// ---- Task factories and side channels ----------------------------------

/// Every FS-Join job can run its tasks in another process by registered
/// name (mr/task.h): a re-execed --worker-task process or a cluster
/// worker. The ordering job's operators are stateless and parameter-free;
/// the filtering and verification factories rebuild their context from
/// the job's task payload (registered further below, after the side
/// channels whose capture they reuse).
[[maybe_unused]] const bool kOrderingFactoryRegistered =
    mr::RegisterTaskFactory(
        "core.ordering",
        [](const std::string&) -> Result<mr::TaskFactories> {
          mr::TaskFactories factories;
          factories.mapper = [] { return std::make_unique<OrderingMapper>(); };
          factories.reducer = [] {
            return std::make_unique<OrderingReducer>();
          };
          factories.partitioner = std::make_shared<mr::PrefixIdPartitioner>();
          return factories;
        });

/// Side channel for FilteringContext. Its capture/merge byte format is
/// shared by both ways a task leaves the coordinator: a forked child
/// (closure tasks, e.g. on the fused-flow backend) runs reset, the body
/// and capture over its copy of the driver's context, and a worker process
/// runs the body and the same capture (TaskFactories::capture) over a
/// payload-built context. A forked child starts from zeroed counters (and
/// no inherited morsel pool — its threads do not survive fork; joins run
/// serially with byte-identical results), captures its deltas as bytes,
/// and the scheduler merges them into the parent's context exactly once
/// per logical task.
mr::TaskSideChannel FilteringSideChannel(
    std::shared_ptr<FilteringContext> ctx) {
  mr::TaskSideChannel side;
  side.reset = [ctx] {
    // Leak the pool, never destroy it: ~ThreadPool joins worker threads
    // that do not exist in a forked child, deadlocking forever on their
    // inherited thread descriptors. The memory is a COW page the child's
    // _exit reclaims; a null pool makes morsel joins run serially.
    (void)ctx->join_pool.release();
    ctx->totals = FilterCounters{};
    ctx->captured_partials.clear();
    for (uint64_t& c : ctx->auto_method_counts) c = 0;
    for (uint64_t& c : ctx->auto_kernel_counts) c = 0;
  };
  side.capture = [ctx]() -> std::string {
    std::string bytes;
    std::lock_guard<std::mutex> lock(ctx->mu);
    const FilterCounters& c = ctx->totals;
    PutVarint64(&bytes, c.pairs_considered);
    PutVarint64(&bytes, c.pruned_role);
    PutVarint64(&bytes, c.pruned_strl);
    PutVarint64(&bytes, c.pruned_segl);
    PutVarint64(&bytes, c.pruned_segi);
    PutVarint64(&bytes, c.pruned_segd);
    PutVarint64(&bytes, c.empty_overlap);
    PutVarint64(&bytes, c.emitted);
    for (uint64_t count : ctx->auto_method_counts) PutVarint64(&bytes, count);
    for (uint64_t count : ctx->auto_kernel_counts) PutVarint64(&bytes, count);
    PutVarint64(&bytes, ctx->captured_partials.size());
    for (const PartialOverlap& p : ctx->captured_partials) {
      PutVarint32(&bytes, p.a);
      PutVarint32(&bytes, p.b);
      PutVarint32(&bytes, p.size_a);
      PutVarint32(&bytes, p.size_b);
      PutVarint64(&bytes, p.overlap);
    }
    return bytes;
  };
  side.merge = [ctx](const std::string& bytes) -> Status {
    Decoder dec(bytes);
    FilterCounters c;
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pairs_considered));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pruned_role));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pruned_strl));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pruned_segl));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pruned_segi));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pruned_segd));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.empty_overlap));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.emitted));
    uint64_t method_counts[3] = {0, 0, 0};
    uint64_t kernel_counts[4] = {0, 0, 0, 0};
    for (uint64_t& count : method_counts) {
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&count));
    }
    for (uint64_t& count : kernel_counts) {
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&count));
    }
    uint64_t num_partials = 0;
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&num_partials));
    std::vector<PartialOverlap> partials;
    partials.reserve(num_partials);
    for (uint64_t i = 0; i < num_partials; ++i) {
      PartialOverlap p;
      FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&p.a));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&p.b));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&p.size_a));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&p.size_b));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&p.overlap));
      partials.push_back(p);
    }
    if (!dec.done()) {
      return Status::Corruption("trailing bytes in filtering side state");
    }
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->totals.Add(c);
    for (int i = 0; i < 3; ++i) ctx->auto_method_counts[i] += method_counts[i];
    for (int i = 0; i < 4; ++i) ctx->auto_kernel_counts[i] += kernel_counts[i];
    ctx->captured_partials.insert(ctx->captured_partials.end(),
                                  partials.begin(), partials.end());
    return Status::OK();
  };
  return side;
}

/// Side channel for VerificationContext: candidate-pair count only.
mr::TaskSideChannel VerificationSideChannel(
    std::shared_ptr<VerificationContext> ctx) {
  mr::TaskSideChannel side;
  side.reset = [ctx] { ctx->candidate_pairs = 0; };
  side.capture = [ctx]() -> std::string {
    std::string bytes;
    std::lock_guard<std::mutex> lock(ctx->mu);
    PutVarint64(&bytes, ctx->candidate_pairs);
    return bytes;
  };
  side.merge = [ctx](const std::string& bytes) -> Status {
    Decoder dec(bytes);
    uint64_t count = 0;
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&count));
    if (!dec.done()) {
      return Status::Corruption("trailing bytes in verification side state");
    }
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->candidate_pairs += count;
    return Status::OK();
  };
  return side;
}

// ---- Task payloads -------------------------------------------------------

constexpr uint32_t kFilteringPayloadVersion = 1;
constexpr uint32_t kVerificationPayloadVersion = 1;

/// FilteringPayload flag bits.
enum : uint32_t {
  kFlagAggressivePrefix = 1u << 0,
  kFlagLengthFilter = 1u << 1,
  kFlagSegmentLengthFilter = 1u << 2,
  kFlagSegmentIntersectionFilter = 1u << 3,
  kFlagSegmentDifferenceFilter = 1u << 4,
  kFlagAutoTune = 1u << 5,
  kFlagAutoMethod = 1u << 6,
  kFlagAutoKernel = 1u << 7,
  kFlagCollectPartials = 1u << 8,
  kFlagRsBoundary = 1u << 9,
  kFlagFilterFault = 1u << 10,
  kAllFlags = (1u << 11) - 1,
};

Status GetInt(Decoder* dec, int* value) {
  int64_t v = 0;
  FSJOIN_RETURN_NOT_OK(dec->GetZigzagVarint64(&v));
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return Status::Corruption("signed field out of range");
  }
  *value = static_cast<int>(v);
  return Status::OK();
}

void PutTheta(std::string* dst, SimilarityFunction function, double theta) {
  PutVarint32(dst, static_cast<uint32_t>(function));
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(theta));
  std::memcpy(&bits, &theta, sizeof(bits));
  PutFixed64BE(dst, bits);
}

Status GetTheta(Decoder* dec, SimilarityFunction* function, double* theta) {
  uint32_t fn = 0;
  FSJOIN_RETURN_NOT_OK(dec->GetVarint32(&fn));
  if (fn > static_cast<uint32_t>(SimilarityFunction::kCosine)) {
    return Status::Corruption("bad similarity function " +
                              std::to_string(fn));
  }
  *function = static_cast<SimilarityFunction>(fn);
  uint64_t bits = 0;
  FSJOIN_RETURN_NOT_OK(dec->GetFixed64BE(&bits));
  std::memcpy(theta, &bits, sizeof(*theta));
  if (!(*theta > 0.0 && *theta <= 1.0)) {
    return Status::Corruption("theta outside (0, 1]");
  }
  return Status::OK();
}

/// Maps every decode failure to Corruption: a payload that does not parse
/// is damaged bytes, whatever the field that noticed.
Status AsCorruption(const char* what, const Status& st) {
  if (st.ok()) return st;
  return Status::Corruption(std::string(what) + ": " + st.message());
}

Status DecodeFilteringFields(std::string_view payload, FilteringContext* ctx) {
  Decoder dec(payload);
  uint32_t version = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&version));
  if (version != kFilteringPayloadVersion) {
    return Status::Corruption("unsupported version " +
                              std::to_string(version));
  }
  FsJoinConfig& cfg = ctx->config;
  FSJOIN_RETURN_NOT_OK(GetTheta(&dec, &cfg.function, &cfg.theta));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&cfg.num_vertical_partitions));
  if (cfg.num_vertical_partitions == 0) {
    return Status::Corruption("zero fragments");
  }
  uint32_t method = 0, kernel = 0, flags = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&method));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&kernel));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&flags));
  if (method > static_cast<uint32_t>(JoinMethod::kPrefix) ||
      kernel > static_cast<uint32_t>(exec::KernelMode::kSimd) ||
      (flags & ~kAllFlags) != 0) {
    return Status::Corruption("bad join method, kernel or flags");
  }
  cfg.join_method = static_cast<JoinMethod>(method);
  cfg.exec.kernel = static_cast<exec::KernelMode>(kernel);
  cfg.aggressive_segment_prefix = (flags & kFlagAggressivePrefix) != 0;
  cfg.use_length_filter = (flags & kFlagLengthFilter) != 0;
  cfg.use_segment_length_filter = (flags & kFlagSegmentLengthFilter) != 0;
  cfg.use_segment_intersection_filter =
      (flags & kFlagSegmentIntersectionFilter) != 0;
  cfg.use_segment_difference_filter =
      (flags & kFlagSegmentDifferenceFilter) != 0;
  cfg.exec.auto_tune = (flags & kFlagAutoTune) != 0;
  ctx->auto_choose_method = (flags & kFlagAutoMethod) != 0;
  ctx->auto_choose_kernel = (flags & kFlagAutoKernel) != 0;
  cfg.collect_partial_overlaps = (flags & kFlagCollectPartials) != 0;
  if ((flags & kFlagRsBoundary) != 0) {
    uint32_t boundary = 0;
    FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&boundary));
    cfg.rs_boundary = boundary;
  }
  if ((flags & kFlagFilterFault) != 0) {
    FSJOIN_RETURN_NOT_OK(GetInt(&dec, &ctx->filter_fault.segl_required_bias));
    FSJOIN_RETURN_NOT_OK(GetInt(&dec, &ctx->filter_fault.segi_required_bias));
  }
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&ctx->policy.loop_max_segments));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&ctx->policy.index_max_avg_len));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&ctx->policy.simd_min_avg_len));

  FSJOIN_RETURN_NOT_OK(dec.GetUint32Vector(&ctx->pivots));
  if (!std::is_sorted(ctx->pivots.begin(), ctx->pivots.end())) {
    return Status::Corruption("vertical pivots out of order");
  }
  std::vector<uint32_t> length_pivots;
  FSJOIN_RETURN_NOT_OK(dec.GetUint32Vector(&length_pivots));
  for (size_t i = 1; i < length_pivots.size(); ++i) {
    if (length_pivots[i] <= length_pivots[i - 1]) {
      return Status::Corruption("length pivots not strictly increasing");
    }
  }
  ctx->horizontal =
      HorizontalScheme(std::move(length_pivots), cfg.function, cfg.theta);
  std::string_view split;
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&split));
  ctx->split_fragment.assign(split.begin(), split.end());
  std::string_view ranks;
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&ranks));
  ctx->order_ranks = std::string(ranks);
  if (!dec.done()) return Status::Corruption("trailing bytes");
  return Status::OK();
}

Status DecodeVerificationFields(std::string_view payload,
                                VerificationContext* ctx) {
  Decoder dec(payload);
  uint32_t version = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&version));
  if (version != kVerificationPayloadVersion) {
    return Status::Corruption("unsupported version " +
                              std::to_string(version));
  }
  FSJOIN_RETURN_NOT_OK(
      GetTheta(&dec, &ctx->config.function, &ctx->config.theta));
  if (!dec.done()) return Status::Corruption("trailing bytes");
  return Status::OK();
}

/// Worker-side factories: one payload-built context per resolved task, so
/// a task's captured side state is exactly its own deltas. Joins run
/// serially (the context has no morsel pool), as in a forked child.
[[maybe_unused]] const bool kFilteringFactoryRegistered =
    mr::RegisterTaskFactory(
        "core.filtering",
        [](const std::string& payload) -> Result<mr::TaskFactories> {
          FSJOIN_ASSIGN_OR_RETURN(std::shared_ptr<FilteringContext> ctx,
                                  DecodeFilteringPayload(payload));
          // Worker processes run one task at a time, so no join is in
          // flight here (the filters.h contract for changing the fault).
          SetFilterFaultInjection(ctx->filter_fault);
          mr::TaskFactories factories;
          factories.mapper = [ctx] {
            return std::make_unique<FilteringMapper>(ctx);
          };
          factories.reducer = [ctx] {
            return std::make_unique<FilteringReducer>(ctx);
          };
          factories.partitioner = std::make_shared<FragmentPartitioner>(
              ctx->config.num_vertical_partitions);
          factories.capture = FilteringSideChannel(ctx).capture;
          return factories;
        });

[[maybe_unused]] const bool kVerificationFactoryRegistered =
    mr::RegisterTaskFactory(
        "core.verification",
        [](const std::string& payload) -> Result<mr::TaskFactories> {
          FSJOIN_ASSIGN_OR_RETURN(std::shared_ptr<VerificationContext> ctx,
                                  DecodeVerificationPayload(payload));
          mr::TaskFactories factories;
          factories.mapper = [] { return std::make_unique<IdentityMapper>(); };
          factories.reducer = [ctx] {
            return std::make_unique<VerificationReducer>(ctx);
          };
          factories.capture = VerificationSideChannel(ctx).capture;
          return factories;
        });

std::string EncodeFilteringFields(const FilteringContext& context,
                                  bool with_ranks) {
  const FsJoinConfig& cfg = context.config;
  std::string out;
  PutVarint32(&out, kFilteringPayloadVersion);
  PutTheta(&out, cfg.function, cfg.theta);
  PutVarint32(&out, cfg.num_vertical_partitions);
  PutVarint32(&out, static_cast<uint32_t>(cfg.join_method));
  PutVarint32(&out, static_cast<uint32_t>(cfg.exec.kernel));
  uint32_t flags = 0;
  if (cfg.aggressive_segment_prefix) flags |= kFlagAggressivePrefix;
  if (cfg.use_length_filter) flags |= kFlagLengthFilter;
  if (cfg.use_segment_length_filter) flags |= kFlagSegmentLengthFilter;
  if (cfg.use_segment_intersection_filter) {
    flags |= kFlagSegmentIntersectionFilter;
  }
  if (cfg.use_segment_difference_filter) {
    flags |= kFlagSegmentDifferenceFilter;
  }
  if (cfg.exec.auto_tune) flags |= kFlagAutoTune;
  if (context.auto_choose_method) flags |= kFlagAutoMethod;
  if (context.auto_choose_kernel) flags |= kFlagAutoKernel;
  if (cfg.collect_partial_overlaps) flags |= kFlagCollectPartials;
  if (cfg.rs_boundary.has_value()) flags |= kFlagRsBoundary;
  // The filters read the fault from process state, so the payload carries
  // the state in force here, where in-process reducers would read it.
  const FilterFaultInjection fault = GetFilterFaultInjection();
  if (fault.Active()) flags |= kFlagFilterFault;
  PutVarint32(&out, flags);
  if (cfg.rs_boundary.has_value()) PutVarint32(&out, *cfg.rs_boundary);
  if (fault.Active()) {
    PutZigzagVarint64(&out, fault.segl_required_bias);
    PutZigzagVarint64(&out, fault.segi_required_bias);
  }
  PutVarint32(&out, context.policy.loop_max_segments);
  PutVarint32(&out, context.policy.index_max_avg_len);
  PutVarint32(&out, context.policy.simd_min_avg_len);
  PutUint32Vector(&out, context.pivots);
  PutUint32Vector(&out, context.horizontal.pivots());
  PutLengthPrefixed(
      &out, std::string_view(
                reinterpret_cast<const char*>(context.split_fragment.data()),
                context.split_fragment.size()));
  if (!with_ranks) {
    PutLengthPrefixed(&out, "");
  } else if (context.order != nullptr) {
    std::string ranks;
    context.order->EncodeRanksTo(&ranks);
    PutLengthPrefixed(&out, ranks);
  } else {
    PutLengthPrefixed(&out, context.order_ranks);
  }
  return out;
}

}  // namespace

std::string EncodeFilteringPayload(const FilteringContext& context) {
  return EncodeFilteringFields(context, /*with_ranks=*/true);
}

std::string EncodeFilteringReducePayload(const FilteringContext& context) {
  return EncodeFilteringFields(context, /*with_ranks=*/false);
}

Result<std::shared_ptr<FilteringContext>> DecodeFilteringPayload(
    std::string_view payload) {
  auto ctx = std::make_shared<FilteringContext>();
  FSJOIN_RETURN_NOT_OK(AsCorruption(
      "filtering payload", DecodeFilteringFields(payload, ctx.get())));
  return ctx;
}

std::string EncodeVerificationPayload(const VerificationContext& context) {
  std::string out;
  PutVarint32(&out, kVerificationPayloadVersion);
  PutTheta(&out, context.config.function, context.config.theta);
  return out;
}

Result<std::shared_ptr<VerificationContext>> DecodeVerificationPayload(
    std::string_view payload) {
  auto ctx = std::make_shared<VerificationContext>();
  FSJOIN_RETURN_NOT_OK(AsCorruption(
      "verification payload", DecodeVerificationFields(payload, ctx.get())));
  return ctx;
}

mr::Dataset MakeCorpusDataset(const Corpus& corpus) {
  mr::Dataset dataset;
  dataset.reserve(corpus.records.size());
  for (const Record& rec : corpus.records) {
    mr::KeyValue kv;
    PutFixed32BE(&kv.key, rec.id);
    PutUint32Vector(&kv.value, rec.tokens);
    dataset.push_back(std::move(kv));
  }
  return dataset;
}

Status DecodeCorpusRecord(const mr::KeyValue& kv, RecordId* rid,
                          std::vector<TokenId>* tokens) {
  Decoder key_dec(kv.key);
  FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(rid));
  Decoder value_dec(kv.value);
  FSJOIN_RETURN_NOT_OK(value_dec.GetUint32Vector(tokens));
  return Status::OK();
}

mr::JobConfig MakeOrderingJobConfig(uint32_t num_map_tasks,
                                    uint32_t num_reduce_tasks) {
  mr::JobConfig config;
  config.name = "ordering";
  config.num_map_tasks = num_map_tasks;
  config.num_reduce_tasks = num_reduce_tasks;
  config.mapper_factory = [] { return std::make_unique<OrderingMapper>(); };
  config.reducer_factory = [] { return std::make_unique<OrderingReducer>(); };
  // Block b goes to reducer b % R.
  config.partitioner = std::make_shared<mr::PrefixIdPartitioner>();
  // Stateless operators: tasks of this job can run via binary re-exec.
  config.task_factory = "core.ordering";
  return config;
}

Result<GlobalOrder> BuildGlobalOrderFromJobOutput(const mr::Dataset& output,
                                                  size_t vocab_size) {
  std::vector<uint64_t> frequency(vocab_size, 0);
  const uint64_t num_blocks =
      (uint64_t{vocab_size} + kOrderingBlockWidth - 1) / kOrderingBlockWidth;
  std::vector<bool> block_seen(num_blocks, false);
  for (const mr::KeyValue& kv : output) {
    uint32_t block = 0;
    FSJOIN_RETURN_NOT_OK(DecodeBlockKey(kv.key, &block));
    if (block >= num_blocks) {
      return Status::Corruption("ordering output: token block " +
                                std::to_string(block) +
                                " outside the vocabulary");
    }
    if (block_seen[block]) {
      // Offsets ascend within a record, so a token can repeat only through
      // a second record of its block.
      return Status::Corruption("ordering output: token block " +
                                std::to_string(block) + " seen twice");
    }
    block_seen[block] = true;
    const uint64_t base = uint64_t{block} * kOrderingBlockWidth;
    FSJOIN_RETURN_NOT_OK(ForEachBlockCount(
        kv.value, [&](uint32_t offset, uint64_t count) -> Status {
          const uint64_t token = base + offset;
          if (token >= vocab_size) {
            return Status::Corruption("ordering output: token " +
                                      std::to_string(token) +
                                      " outside the vocabulary");
          }
          frequency[token] = count;
          return Status::OK();
        }));
  }
  return GlobalOrder::FromFrequencies(std::move(frequency));
}

Result<GlobalOrder> RunOrderingPlan(exec::ExecutionBackend* backend,
                                    std::string plan_name,
                                    const mr::Dataset& input,
                                    size_t vocab_size) {
  const mr::JobConfig job = MakeOrderingJobConfig(1, 1);
  exec::StageHints hints;
  hints.task_factory = job.task_factory;
  exec::Plan plan(std::move(plan_name));
  plan.FlatMap("tokenize", job.mapper_factory)
      .GroupByKey("ordering", job.reducer_factory, job.partitioner,
                  std::move(hints));
  FSJOIN_ASSIGN_OR_RETURN(mr::Dataset output, backend->Execute(plan, input));
  return BuildGlobalOrderFromJobOutput(output, vocab_size);
}

uint32_t FragmentPartitioner::Partition(std::string_view key,
                                        uint32_t num_partitions) const {
  Decoder dec(key);
  uint32_t h = 0, v = 0;
  if (!dec.GetFixed32BE(&h).ok() || !dec.GetFixed32BE(&v).ok()) {
    return static_cast<uint32_t>(Fnv1a64(key) % num_partitions);
  }
  return (h * num_vertical_ + v) % num_partitions;
}

mr::JobConfig MakeFilteringJobConfig(
    const std::shared_ptr<FilteringContext>& context) {
  mr::JobConfig config;
  config.name = "filtering";
  config.num_map_tasks = context->config.exec.num_map_tasks;
  config.num_reduce_tasks = context->config.exec.num_reduce_tasks;
  config.mapper_factory = [context] {
    return std::make_unique<FilteringMapper>(context);
  };
  config.reducer_factory = [context] {
    return std::make_unique<FilteringReducer>(context);
  };
  config.partitioner = std::make_shared<FragmentPartitioner>(
      context->config.num_vertical_partitions);
  config.side = FilteringSideChannel(context);
  config.task_factory = "core.filtering";
  config.task_payload = EncodeFilteringPayload(*context);
  config.reduce_task_payload = EncodeFilteringReducePayload(*context);
  return config;
}

mr::JobConfig MakeVerificationJobConfig(
    const std::shared_ptr<VerificationContext>& context) {
  mr::JobConfig config;
  config.name = "verification";
  config.num_map_tasks = context->config.exec.num_map_tasks;
  config.num_reduce_tasks = context->config.exec.num_reduce_tasks;
  config.mapper_factory = [] { return std::make_unique<IdentityMapper>(); };
  config.reducer_factory = [context] {
    return std::make_unique<VerificationReducer>(context);
  };
  config.side = VerificationSideChannel(context);
  config.task_factory = "core.verification";
  config.task_payload = EncodeVerificationPayload(*context);
  return config;
}

Result<JoinResultSet> DecodeJoinResults(const mr::Dataset& output) {
  JoinResultSet results;
  results.reserve(output.size());
  for (const mr::KeyValue& kv : output) {
    Decoder key_dec(kv.key);
    uint32_t a = 0, b = 0;
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&a));
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&b));
    Decoder value_dec(kv.value);
    uint64_t bits = 0;
    FSJOIN_RETURN_NOT_OK(value_dec.GetFixed64BE(&bits));
    double sim = 0.0;
    std::memcpy(&sim, &bits, sizeof(sim));
    results.push_back(SimilarPair{a, b, sim});
  }
  NormalizeResult(&results);
  return results;
}

void EncodePartialOverlap(const PartialOverlap& partial, std::string* key,
                          std::string* value) {
  PutFixed32BE(key, partial.a);
  PutFixed32BE(key, partial.b);
  PutVarint64(value, partial.overlap);
  PutVarint64(value, partial.size_a);
  PutVarint64(value, partial.size_b);
}

}  // namespace fsjoin
