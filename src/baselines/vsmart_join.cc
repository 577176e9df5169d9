#include "baselines/vsmart_join.h"

#include <memory>

#include "core/fragment_join.h"
#include "core/jobs.h"
#include "exec/backend.h"
#include "exec/plan.h"
#include "util/serde.h"
#include "util/timer.h"

namespace fsjoin {

namespace {

struct VSmartContext {
  BaselineConfig config;
  std::shared_ptr<EmissionBudget> budget;
};

/// Emits (token, (rid, size)) for every token of every record.
class TokenListMapper : public mr::Mapper {
 public:
  explicit TokenListMapper(std::shared_ptr<VSmartContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    RecordId rid = 0;
    std::vector<TokenId> tokens;
    FSJOIN_RETURN_NOT_OK(DecodeCorpusRecord(record, &rid, &tokens));
    FSJOIN_RETURN_NOT_OK(ctx_->budget->Consume(tokens.size()));
    std::string value;
    PutVarint32(&value, rid);
    PutVarint64(&value, tokens.size());
    for (TokenId t : tokens) {
      std::string key;
      PutFixed32BE(&key, t);
      out->Emit(std::move(key), value);
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<VSmartContext> ctx_;
};

/// Enumerates every pair in the token's posting list — partial overlap 1
/// per shared token, no filters (Online-Aggregation).
class PairEnumerationReducer : public mr::Reducer {
 public:
  explicit PairEnumerationReducer(std::shared_ptr<VSmartContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    (void)key;
    struct Entry {
      RecordId rid;
      uint64_t size;
    };
    std::vector<Entry> entries;
    entries.reserve(values.size());
    for (std::string_view v : values) {
      Decoder dec(v);
      Entry e{};
      FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&e.rid));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&e.size));
      entries.push_back(e);
    }
    const auto emit_pair = [&](const Entry& x, const Entry& y) {
      const Entry& a = x.rid <= y.rid ? x : y;
      const Entry& b = x.rid <= y.rid ? y : x;
      PartialOverlap partial{a.rid, b.rid, static_cast<uint32_t>(a.size),
                             static_cast<uint32_t>(b.size), 1};
      std::string out_key, out_value;
      EncodePartialOverlap(partial, &out_key, &out_value);
      out->Emit(std::move(out_key), std::move(out_value));
    };
    if (ctx_->config.rs_boundary.has_value()) {
      // R-S: the posting list contributes one partial per *cross-side* pair
      // sharing the token — the budget shrinks from n(n-1)/2 to n_r * n_s.
      const RecordId boundary = *ctx_->config.rs_boundary;
      std::vector<Entry> probe, build;
      for (const Entry& e : entries) {
        (e.rid < boundary ? probe : build).push_back(e);
      }
      const uint64_t cross = uint64_t{probe.size()} * build.size();
      if (cross > 0) FSJOIN_RETURN_NOT_OK(ctx_->budget->Consume(cross));
      for (const Entry& a : probe) {
        for (const Entry& b : build) emit_pair(a, b);
      }
    } else {
      const uint64_t n = entries.size();
      if (n >= 2) {
        FSJOIN_RETURN_NOT_OK(ctx_->budget->Consume(n * (n - 1) / 2));
      }
      for (size_t i = 0; i < entries.size(); ++i) {
        for (size_t j = i + 1; j < entries.size(); ++j) {
          emit_pair(entries[i], entries[j]);
        }
      }
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<VSmartContext> ctx_;
};

}  // namespace

Result<BaselineOutput> RunVSmartJoin(const Corpus& corpus,
                                     const BaselineConfig& config) {
  FSJOIN_RETURN_NOT_OK(config.Validate());
  WallTimer timer;

  std::unique_ptr<exec::ExecutionBackend> backend =
      exec::MakeBackend(config.exec);
  mr::Dataset input = MakeCorpusDataset(corpus);

  auto ctx = std::make_shared<VSmartContext>();
  ctx->config = config;
  ctx->budget = std::make_shared<EmissionBudget>(config.exec.emission_limit);

  // One plan, two wide stages: join (token posting lists -> pair partial
  // overlaps), then similarity (aggregate + threshold) — the latter reuses
  // FS-Join's verification reducer.
  auto verification_ctx = std::make_shared<VerificationContext>();
  verification_ctx->config.theta = config.theta;
  verification_ctx->config.function = config.function;
  verification_ctx->config.exec = config.exec;
  mr::JobConfig verification_cfg = MakeVerificationJobConfig(verification_ctx);

  exec::Plan plan("vsmart");
  exec::StageHints verification_hints;
  verification_hints.side = verification_cfg.side;
  plan.FlatMap("token-lists",
               [ctx] { return std::make_unique<TokenListMapper>(ctx); })
      .GroupByKey("vsmart-join",
                  [ctx] { return std::make_unique<PairEnumerationReducer>(ctx); })
      .GroupByKey("verification", verification_cfg.reducer_factory, nullptr,
                  std::move(verification_hints));
  FSJOIN_ASSIGN_OR_RETURN(mr::Dataset results, backend->Execute(plan, input));

  BaselineOutput output;
  FSJOIN_ASSIGN_OR_RETURN(output.pairs, DecodeJoinResults(results));
  output.report.algorithm = "V-Smart-Join";
  output.report.backend = backend->kind();
  output.report.jobs = backend->history();
  output.report.signature_stage = "vsmart-join";
  output.report.candidate_pairs = verification_ctx->candidate_pairs;
  output.report.result_pairs = output.pairs.size();
  output.report.total_wall_ms = timer.ElapsedMillis();
  return output;
}

}  // namespace fsjoin
