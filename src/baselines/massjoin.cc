#include "baselines/massjoin.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_set>

#include "core/jobs.h"
#include "exec/backend.h"
#include "exec/plan.h"
#include "sim/global_order.h"
#include "sim/set_ops.h"
#include "util/hash.h"
#include "util/serde.h"
#include "util/timer.h"

namespace fsjoin {

namespace {

// Value tags used across the MassJoin jobs.
constexpr char kTagIndex = 'I';    // signature job: index entry
constexpr char kTagProbe = 'P';    // signature job: probe entry
constexpr char kTagCandidate = 'C';  // candidate rid pair
constexpr char kTagRecord = 'R';   // ranked record content
constexpr char kTagPartial = 'Q';  // candidate with left content attached

struct MassJoinContext {
  MassJoinConfig config;
  std::shared_ptr<const GlobalOrder> order;
  std::shared_ptr<EmissionBudget> budget;
};

// ---- Job 2: signatures -> candidate pairs -------------------------------

class SignatureMapper : public mr::Mapper {
 public:
  explicit SignatureMapper(std::shared_ptr<MassJoinContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    RecordId rid = 0;
    std::vector<TokenId> tokens;
    FSJOIN_RETURN_NOT_OK(DecodeCorpusRecord(record, &rid, &tokens));
    std::vector<TokenRank> ranks;
    ranks.reserve(tokens.size());
    for (TokenId t : tokens) ranks.push_back(ctx_->order->RankOf(t));
    std::sort(ranks.begin(), ranks.end());
    const uint64_t len = ranks.size();
    const SimilarityFunction fn = ctx_->config.function;
    const double theta = ctx_->config.theta;
    // R-S: R records probe, S records index — one-directional, so probe
    // buckets must cover the *whole* partner-length window (in the self
    // join lengths above |t| are covered by the longer partner probing
    // back; here S never probes).
    const std::optional<RecordId> rs = ctx_->config.rs_boundary;
    const bool emits_index = !rs.has_value() || rid >= *rs;
    const bool emits_probes = !rs.has_value() || rid < *rs;

    if (emits_index) {
      // Index signatures: conservative prefix (valid for any partner).
      const uint64_t index_prefix = PrefixLength(fn, theta, len);
      FSJOIN_RETURN_NOT_OK(ctx_->budget->Consume(index_prefix));
      std::string value;
      value.push_back(kTagIndex);
      PutVarint32(&value, rid);
      PutVarint64(&value, len);
      for (uint64_t p = 0; p < index_prefix; ++p) {
        std::string key;
        PutFixed32BE(&key, ranks[p]);
        out->Emit(std::move(key), value);
      }
    }
    if (!emits_probes) return Status::OK();

    // Probe signatures: one batch per candidate partner-length bucket.
    const uint64_t lmin = PartnerSizeLowerBound(fn, theta, len);
    const uint64_t lmax =
        rs.has_value() ? PartnerSizeUpperBound(fn, theta, len) : len;
    const uint64_t group = std::max<uint32_t>(ctx_->config.length_group, 1);
    for (uint64_t lo = std::max<uint64_t>(lmin, 1); lo <= lmax;
         lo += group) {
      const uint64_t hi = std::min<uint64_t>(lmax, lo + group - 1);
      // Prefix valid for every partner length in [lo, hi]: the smallest
      // length needs the longest prefix.
      const uint64_t alpha = MinOverlap(fn, theta, lo, len);
      const uint64_t probe_prefix =
          alpha > len ? 0 : std::min<uint64_t>(len, len - alpha + 1);
      FSJOIN_RETURN_NOT_OK(ctx_->budget->Consume(probe_prefix));
      std::string value;
      value.push_back(kTagProbe);
      PutVarint32(&value, rid);
      PutVarint64(&value, len);
      PutVarint64(&value, lo);
      PutVarint64(&value, hi);
      for (uint64_t p = 0; p < probe_prefix; ++p) {
        std::string key;
        PutFixed32BE(&key, ranks[p]);
        out->Emit(std::move(key), value);
      }
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<MassJoinContext> ctx_;
};

class CandidateReducer : public mr::Reducer {
 public:
  explicit CandidateReducer(std::shared_ptr<MassJoinContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    (void)key;
    struct IndexEntry {
      RecordId rid;
      uint64_t len;
    };
    struct ProbeEntry {
      RecordId rid;
      uint64_t len, lo, hi;
    };
    std::vector<IndexEntry> index;
    std::vector<ProbeEntry> probes;
    for (std::string_view v : values) {
      if (v.empty()) return Status::Internal("empty massjoin signature");
      Decoder dec(v.substr(1));
      if (v[0] == kTagIndex) {
        IndexEntry e{};
        FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&e.rid));
        FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&e.len));
        index.push_back(e);
      } else if (v[0] == kTagProbe) {
        ProbeEntry e{};
        FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&e.rid));
        FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&e.len));
        FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&e.lo));
        FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&e.hi));
        probes.push_back(e);
      } else {
        return Status::Internal("unknown massjoin signature tag");
      }
    }
    std::unordered_set<std::pair<uint32_t, uint32_t>, RidPairHash> seen;
    for (const ProbeEntry& p : probes) {
      for (const IndexEntry& s : index) {
        if (s.rid == p.rid) continue;
        if (s.len < p.lo || s.len > p.hi) continue;
        const uint32_t a = std::min(s.rid, p.rid);
        const uint32_t b = std::max(s.rid, p.rid);
        if (!seen.insert({a, b}).second) continue;
        FSJOIN_RETURN_NOT_OK(ctx_->budget->Consume(1));
        std::string out_key;
        PutFixed32BE(&out_key, a);
        PutFixed32BE(&out_key, b);
        out->Emit(std::move(out_key), std::string(1, kTagCandidate));
      }
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<MassJoinContext> ctx_;
};

// ---- Job 3: dedup + attach left record content --------------------------

class MergeMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    if (record.value.empty()) return Status::Internal("empty massjoin value");
    if (record.value[0] == kTagCandidate) {
      Decoder dec(record.key);
      uint32_t a = 0, b = 0;
      FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&a));
      FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&b));
      std::string key, value;
      PutFixed32BE(&key, a);
      value.push_back(kTagCandidate);
      PutVarint32(&value, b);
      out->Emit(std::move(key), std::move(value));
    } else {
      out->Emit(record.key, record.value);  // ranked record, pass through
    }
    return Status::OK();
  }
};

class MergeReducer : public mr::Reducer {
 public:
  explicit MergeReducer(std::shared_ptr<MassJoinContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    Decoder key_dec(key);
    uint32_t a = 0;
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&a));
    std::vector<TokenRank> content;
    bool have_content = false;
    std::unordered_set<uint32_t> partners;
    for (std::string_view v : values) {
      if (v.empty()) return Status::Internal("empty massjoin merge value");
      Decoder dec(v.substr(1));
      if (v[0] == kTagRecord) {
        FSJOIN_RETURN_NOT_OK(dec.GetUint32Vector(&content));
        have_content = true;
      } else if (v[0] == kTagCandidate) {
        uint32_t b = 0;
        FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&b));
        partners.insert(b);
      } else {
        return Status::Internal("unknown massjoin merge tag");
      }
    }
    if (!have_content) {
      return Status::Internal("massjoin merge: record content missing");
    }
    if (partners.empty()) return Status::OK();
    FSJOIN_RETURN_NOT_OK(ctx_->budget->Consume(partners.size()));
    // "Outputs the same string multiple times with the items": the left
    // record's full content is duplicated once per candidate partner.
    for (uint32_t b : partners) {
      std::string out_key, out_value;
      PutFixed32BE(&out_key, b);
      out_value.push_back(kTagPartial);
      PutVarint32(&out_value, a);
      PutUint32Vector(&out_value, content);
      out->Emit(std::move(out_key), std::move(out_value));
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<MassJoinContext> ctx_;
};

// ---- Job 4: attach right record content + verify -------------------------

class VerifyReducer : public mr::Reducer {
 public:
  explicit VerifyReducer(std::shared_ptr<MassJoinContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    Decoder key_dec(key);
    uint32_t b = 0;
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&b));
    std::vector<TokenRank> content;
    bool have_content = false;
    struct Partial {
      uint32_t a;
      std::vector<TokenRank> tokens;
    };
    std::vector<Partial> partials;
    for (std::string_view v : values) {
      if (v.empty()) return Status::Internal("empty massjoin verify value");
      Decoder dec(v.substr(1));
      if (v[0] == kTagRecord) {
        FSJOIN_RETURN_NOT_OK(dec.GetUint32Vector(&content));
        have_content = true;
      } else if (v[0] == kTagPartial) {
        Partial p;
        FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&p.a));
        FSJOIN_RETURN_NOT_OK(dec.GetUint32Vector(&p.tokens));
        partials.push_back(std::move(p));
      } else {
        return Status::Internal("unknown massjoin verify tag");
      }
    }
    if (partials.empty()) return Status::OK();
    if (!have_content) {
      return Status::Internal("massjoin verify: record content missing");
    }
    const SimilarityFunction fn = ctx_->config.function;
    const double theta = ctx_->config.theta;
    for (const Partial& p : partials) {
      const uint64_t required =
          MinOverlap(fn, theta, p.tokens.size(), content.size());
      const uint64_t c = SortedOverlapAtLeast(p.tokens, content, required);
      if (c == 0) continue;
      if (!PassesThreshold(fn, c, p.tokens.size(), content.size(), theta)) {
        continue;
      }
      std::string out_key, out_value;
      PutFixed32BE(&out_key, std::min(p.a, b));
      PutFixed32BE(&out_key, std::max(p.a, b));
      double sim = ComputeSimilarity(fn, c, p.tokens.size(), content.size());
      uint64_t bits = 0;
      std::memcpy(&bits, &sim, sizeof(bits));
      PutFixed64BE(&out_value, bits);
      out->Emit(std::move(out_key), std::move(out_value));
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<MassJoinContext> ctx_;
};

mr::Dataset MakeRankedDataset(const Corpus& corpus, const GlobalOrder& order) {
  mr::Dataset dataset;
  dataset.reserve(corpus.records.size());
  for (const Record& rec : corpus.records) {
    std::vector<TokenRank> ranks;
    ranks.reserve(rec.tokens.size());
    for (TokenId t : rec.tokens) ranks.push_back(order.RankOf(t));
    std::sort(ranks.begin(), ranks.end());
    mr::KeyValue kv;
    PutFixed32BE(&kv.key, rec.id);
    kv.value.push_back(kTagRecord);
    PutUint32Vector(&kv.value, ranks);
    dataset.push_back(std::move(kv));
  }
  return dataset;
}

}  // namespace

Result<BaselineOutput> RunMassJoin(const Corpus& corpus,
                                   const MassJoinConfig& config) {
  FSJOIN_RETURN_NOT_OK(config.Validate());
  WallTimer timer;

  std::unique_ptr<exec::ExecutionBackend> backend =
      exec::MakeBackend(config.exec);
  mr::Dataset input = MakeCorpusDataset(corpus);

  // Plan 1: ordering.
  FSJOIN_ASSIGN_OR_RETURN(
      GlobalOrder order, RunOrderingPlan(backend.get(), "massjoin-ordering", input,
                                         corpus.dictionary.size()));

  auto ctx = std::make_shared<MassJoinContext>();
  ctx->config = config;
  ctx->order = std::make_shared<const GlobalOrder>(std::move(order));
  ctx->budget = std::make_shared<EmissionBudget>(config.exec.emission_limit);

  // Plan 2: signatures -> candidates, then dedup + attach left content,
  // then attach right content + verify. The merge and verify stages read
  // the candidate stream side by side with the ranked record content,
  // expressed as unions with a driver-materialized side dataset.
  auto ranked = std::make_shared<const mr::Dataset>(
      MakeRankedDataset(corpus, *ctx->order));

  exec::Plan plan("massjoin");
  plan.FlatMap("signatures",
               [ctx] { return std::make_unique<SignatureMapper>(ctx); })
      .GroupByKey("massjoin-signatures",
                  [ctx] { return std::make_unique<CandidateReducer>(ctx); })
      .UnionWith("ranked-records", ranked)
      .FlatMap("merge-split", [] { return std::make_unique<MergeMapper>(); })
      .GroupByKey("massjoin-merge",
                  [ctx] { return std::make_unique<MergeReducer>(ctx); })
      .UnionWith("ranked-records", ranked)
      .GroupByKey("massjoin-verify",
                  [ctx] { return std::make_unique<VerifyReducer>(ctx); });
  FSJOIN_ASSIGN_OR_RETURN(mr::Dataset results, backend->Execute(plan, input));

  BaselineOutput output;
  FSJOIN_ASSIGN_OR_RETURN(output.pairs, DecodeJoinResults(results));
  output.report.algorithm =
      config.length_group > 1 ? "MassJoin-Merge+Light" : "MassJoin-Merge";
  output.report.backend = backend->kind();
  output.report.jobs = backend->history();
  output.report.signature_stage = "massjoin-signatures";
  // Candidates = deduped (pair, left-content) records entering the verify
  // stage.
  for (const mr::JobMetrics& j : output.report.jobs) {
    if (j.job_name == "massjoin-merge") {
      output.report.candidate_pairs = j.reduce_output_records;
    }
  }
  output.report.result_pairs = output.pairs.size();
  output.report.total_wall_ms = timer.ElapsedMillis();
  return output;
}

}  // namespace fsjoin
