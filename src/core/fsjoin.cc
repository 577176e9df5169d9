#include "core/fsjoin.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "core/jobs.h"
#include "core/pivots.h"
#include "exec/backend.h"
#include "exec/plan.h"
#include "tune/tuner.h"
#include "util/logging.h"
#include "util/simd.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace fsjoin {

std::vector<mr::JobMetrics> FsJoinReport::AllJobs() const {
  return {ordering_job, filtering_job, verification_job};
}

std::vector<mr::JobMetrics> FsJoinReport::JoinJobs() const {
  return {filtering_job, verification_job};
}

std::string FsJoinReport::Summary() const {
  std::ostringstream os;
  os << config.Summary() << "\n";
  os << StrFormat(
      "  pivots: %zu vertical, %zu horizontal | candidates: %s | results: "
      "%s\n",
      pivots.size(), length_pivots.size(),
      WithThousandsSep(candidate_pairs).c_str(),
      WithThousandsSep(result_pairs).c_str());
  os << StrFormat(
      "  filters: considered=%s role=%s strl=%s segl=%s segi=%s segd=%s "
      "empty=%s emitted=%s\n",
      WithThousandsSep(filters.pairs_considered).c_str(),
      WithThousandsSep(filters.pruned_role).c_str(),
      WithThousandsSep(filters.pruned_strl).c_str(),
      WithThousandsSep(filters.pruned_segl).c_str(),
      WithThousandsSep(filters.pruned_segi).c_str(),
      WithThousandsSep(filters.pruned_segd).c_str(),
      WithThousandsSep(filters.empty_overlap).c_str(),
      WithThousandsSep(filters.emitted).c_str());
  os << StrFormat(
      "  shuffle: filtering %s (dup %.2fx), verification %s | kernel %s | "
      "wall %.1f ms",
      HumanBytes(filtering_job.shuffle_bytes).c_str(),
      filtering_job.DuplicationFactor(),
      HumanBytes(verification_job.shuffle_bytes).c_str(),
      filtering_job.join_kernel.empty() ? "?"
                                        : filtering_job.join_kernel.c_str(),
      total_wall_ms);
  uint64_t spilled = 0;
  uint32_t runs = 0;
  for (const mr::JobMetrics& j : AllJobs()) {
    spilled += j.spilled_bytes;
    runs += j.spill_runs;
  }
  if (runs > 0) {
    os << StrFormat("\n  spill: %s in %u runs", HumanBytes(spilled).c_str(),
                    runs);
  }
  if (tuning.enabled) {
    for (const std::string& line : tuning.lines) {
      os << "\n  auto: " << line;
    }
  }
  return os.str();
}

Result<FsJoinOutput> FsJoin::Run(const Corpus& corpus) const {
  FSJOIN_RETURN_NOT_OK(config_.Validate());
  WallTimer timer;

  std::unique_ptr<exec::ExecutionBackend> backend =
      exec::MakeBackend(config_.exec);

  FsJoinOutput output;
  output.report.config = config_;
  output.report.backend = backend->kind();

  mr::Dataset input = MakeCorpusDataset(corpus);

  // --- Plan 1: ordering -------------------------------------------------
  FSJOIN_ASSIGN_OR_RETURN(GlobalOrder order,
                          RunOrderingPlan(backend.get(), "ordering", input,
                                          corpus.dictionary.size()));
  auto shared_order = std::make_shared<const GlobalOrder>(std::move(order));

  // --- Pivot selection (driver-side, like the paper's setup() phase) ----
  auto filtering_ctx = std::make_shared<FilteringContext>();
  filtering_ctx->config = config_;
  filtering_ctx->order = shared_order;
  if (config_.exec.parallel_fragment_join) {
    // One pool for the whole run: morsels steal work across fragments, so
    // a skewed fragment is consumed by every worker. With num_threads == 0
    // ParallelFor runs inline (deterministic-debug mode).
    filtering_ctx->join_pool =
        std::make_unique<ThreadPool>(config_.exec.num_threads);
  }
  uint32_t horizontal_t = config_.num_horizontal_partitions;
  if (config_.exec.auto_tune) {
    // --auto (DESIGN.md §5i): sample-driven pivot refinement, horizontal-t
    // + skew-split choice, and per-fragment method/kernel decisions in the
    // reducers. Pinned knobs keep their configured value; every override
    // and resolved choice lands in report.tuning.
    FsJoinReport::TuneLog& log = output.report.tuning;
    log.enabled = true;
    tune::TuneOptions topt;
    topt.sample_rate = config_.exec.tune_sample_rate;
    topt.seed = config_.seed;
    topt.num_fragments = config_.num_vertical_partitions;
    topt.function = config_.function;
    topt.theta = config_.theta;
    topt.rs_boundary = config_.rs_boundary;
    tune::TunePlan plan = tune::PlanTuning(corpus, *shared_order, topt);
    log.sample_rate = topt.sample_rate > 0 ? topt.sample_rate
                                           : tune::kDefaultSampleRate;
    log.sampled_records = plan.sampled_records;
    log.total_records = plan.total_records;
    log.lines = std::move(plan.log_lines);
    if (config_.pinned.pivot_strategy) {
      filtering_ctx->pivots =
          SelectPivots(*shared_order, config_.pivot_strategy,
                       config_.num_vertical_partitions - 1, config_.seed);
      log.lines.push_back(
          StrFormat("override: pivot strategy pinned to %s, refinement "
                    "skipped",
                    PivotStrategyName(config_.pivot_strategy)));
    } else {
      filtering_ctx->pivots = std::move(plan.pivots);
    }
    if (config_.pinned.horizontal) {
      log.lines.push_back(StrFormat(
          "override: horizontal pinned to t=%u, skew splitting off",
          config_.num_horizontal_partitions));
    } else {
      horizontal_t = plan.horizontal_t;
      if (horizontal_t > 0) {
        filtering_ctx->split_fragment = std::move(plan.split_fragment);
      }
    }
    filtering_ctx->auto_choose_method = !config_.pinned.join_method;
    filtering_ctx->auto_choose_kernel = !config_.pinned.kernel;
    if (config_.pinned.join_method) {
      log.lines.push_back(
          StrFormat("override: join method pinned to %s",
                    JoinMethodName(config_.join_method)));
    }
    if (config_.pinned.kernel) {
      log.lines.push_back(
          StrFormat("override: kernel pinned to %s",
                    exec::KernelModeName(config_.exec.kernel)));
    }
  } else {
    filtering_ctx->pivots =
        SelectPivots(*shared_order, config_.pivot_strategy,
                     config_.num_vertical_partitions > 0
                         ? config_.num_vertical_partitions - 1
                         : 0,
                     config_.seed);
  }
  if (horizontal_t > 0) {
    // Record sizes are ordering-invariant, so length pivots come straight
    // from the corpus token counts — no OrderedRecord materialization.
    std::vector<uint32_t> lengths;
    lengths.reserve(corpus.records.size());
    for (const Record& rec : corpus.records) {
      lengths.push_back(static_cast<uint32_t>(rec.tokens.size()));
    }
    filtering_ctx->horizontal = HorizontalScheme(
        SelectLengthPivotsFromLengths(std::move(lengths), horizontal_t,
                                      config_.function, config_.theta),
        config_.function, config_.theta);
  }
  output.report.pivots = filtering_ctx->pivots;
  output.report.length_pivots = filtering_ctx->horizontal.pivots();

  // --- Plan 2: filtering + verification ----------------------------------
  // On the MR backend each GroupByKey materializes as one job (the paper's
  // substrate); on the fused backend both shuffles run in one pipeline with
  // no intermediate DFS round-trip. Both stages name their task factory
  // and carry its payload (encoded once, here), so on an isolated runner
  // cluster workers or re-execed task processes run them; the side
  // channels bring counters and captures back from either place.
  auto verification_ctx = std::make_shared<VerificationContext>();
  verification_ctx->config = config_;
  mr::JobConfig filtering_cfg = MakeFilteringJobConfig(filtering_ctx);
  mr::JobConfig verification_cfg = MakeVerificationJobConfig(verification_ctx);
  exec::Plan join_plan("join");
  exec::StageHints filtering_hints;
  filtering_hints.side = filtering_cfg.side;
  filtering_hints.task_factory = filtering_cfg.task_factory;
  filtering_hints.task_payload = std::move(filtering_cfg.task_payload);
  filtering_hints.reduce_task_payload =
      std::move(filtering_cfg.reduce_task_payload);
  exec::StageHints verification_hints;
  verification_hints.side = verification_cfg.side;
  verification_hints.task_factory = verification_cfg.task_factory;
  verification_hints.task_payload = std::move(verification_cfg.task_payload);
  join_plan
      .FlatMap("vertical-split", filtering_cfg.mapper_factory)
      .GroupByKey("filtering", filtering_cfg.reducer_factory,
                  filtering_cfg.partitioner, std::move(filtering_hints))
      .GroupByKey("verification", verification_cfg.reducer_factory, nullptr,
                  std::move(verification_hints));
  FSJOIN_ASSIGN_OR_RETURN(mr::Dataset results_out,
                          backend->Execute(join_plan, input));
  FSJOIN_ASSIGN_OR_RETURN(output.pairs, DecodeJoinResults(results_out));

  const std::vector<mr::JobMetrics>& history = backend->history();
  output.report.ordering_job = history[0];
  output.report.filtering_job = history[1];
  output.report.verification_job = history[2];
  // Self-describing A/B runs: record which kernel pipeline the filtering
  // reducers actually used, with the ISA the auto mode resolved to. Under
  // --auto the reducers choose per fragment, so the string becomes the
  // decision histogram instead of a single mode.
  if (config_.exec.auto_tune && (filtering_ctx->auto_choose_method ||
                                 filtering_ctx->auto_choose_kernel)) {
    std::string histogram;
    for (int m = 0; m < 3; ++m) {
      if (filtering_ctx->auto_method_counts[m] == 0) continue;
      histogram += StrFormat(
          "%s%s:%llu", histogram.empty() ? "" : ",",
          JoinMethodName(static_cast<JoinMethod>(m)),
          static_cast<unsigned long long>(
              filtering_ctx->auto_method_counts[m]));
    }
    histogram += "|";
    bool first = true;
    for (int k = 0; k < 4; ++k) {
      if (filtering_ctx->auto_kernel_counts[k] == 0) continue;
      histogram += StrFormat(
          "%s%s:%llu", first ? "" : ",",
          exec::KernelModeName(static_cast<exec::KernelMode>(k)),
          static_cast<unsigned long long>(
              filtering_ctx->auto_kernel_counts[k]));
      first = false;
    }
    output.report.filtering_job.join_kernel = StrFormat(
        "auto{%s}[%s]", histogram.c_str(), SimdIsaName(DetectedSimdIsa()));
    output.report.tuning.lines.push_back(
        StrFormat("fragments: %s", histogram.c_str()));
  } else {
    output.report.filtering_job.join_kernel = StrFormat(
        "%s[%s]",
        exec::KernelModeName(exec::ResolveKernelMode(config_.exec.kernel)),
        SimdIsaName(DetectedSimdIsa()));
  }
  output.report.flow_pipelines = backend->flow_history();
  output.report.filters = filtering_ctx->totals;
  output.report.candidate_pairs = verification_ctx->candidate_pairs;
  output.report.result_pairs = output.pairs.size();
  if (config_.collect_partial_overlaps) {
    output.partial_overlaps = std::move(filtering_ctx->captured_partials);
    // Reducer completion order depends on threading; sort canonically so the
    // capture is deterministic for a fixed corpus and config.
    std::sort(output.partial_overlaps.begin(), output.partial_overlaps.end(),
              [](const PartialOverlap& x, const PartialOverlap& y) {
                if (x.a != y.a) return x.a < y.a;
                if (x.b != y.b) return x.b < y.b;
                if (x.overlap != y.overlap) return x.overlap < y.overlap;
                if (x.size_a != y.size_a) return x.size_a < y.size_a;
                return x.size_b < y.size_b;
              });
  }
  output.report.total_wall_ms = timer.ElapsedMillis();
  return output;
}

Corpus MergeJoinInput(const JoinInput& input) {
  Corpus merged;
  merged.records.reserve(input.r.records.size() + input.s.records.size());
  // R's dictionary first, in token-id order: the union mapping is the
  // identity on R, so probe-side token ids survive the merge unchanged even
  // when the vocabularies are disjoint.
  for (TokenId t = 0; t < static_cast<TokenId>(input.r.dictionary.size());
       ++t) {
    merged.dictionary.Intern(input.r.dictionary.TokenString(t));
  }
  for (const Record& rec : input.r.records) {
    Record copy;
    copy.id = static_cast<RecordId>(merged.records.size());
    copy.tokens = rec.tokens;  // sorted unique by Corpus invariant
    for (TokenId t : copy.tokens) merged.dictionary.AddFrequency(t, 1);
    merged.records.push_back(std::move(copy));
  }
  // S ids are remapped through a per-S-id table filled lazily in record
  // order: each distinct S token is interned by string once, on its first
  // occurrence, which is the same first-seen order the per-occurrence
  // interning gave — so merged ids, dictionary and frequencies are
  // unchanged, and entries no S record uses are never interned.
  constexpr TokenId kUnmapped = std::numeric_limits<TokenId>::max();
  std::vector<TokenId> s_to_merged(input.s.dictionary.size(), kUnmapped);
  for (const Record& rec : input.s.records) {
    Record copy;
    copy.id = static_cast<RecordId>(merged.records.size());
    copy.tokens.reserve(rec.tokens.size());
    for (TokenId t : rec.tokens) {
      FSJOIN_CHECK(t < s_to_merged.size());
      TokenId& mapped = s_to_merged[t];
      if (mapped == kUnmapped) {
        mapped = merged.dictionary.Intern(input.s.dictionary.TokenString(t));
      }
      copy.tokens.push_back(mapped);
    }
    std::sort(copy.tokens.begin(), copy.tokens.end());
    copy.tokens.erase(std::unique(copy.tokens.begin(), copy.tokens.end()),
                      copy.tokens.end());
    for (TokenId t : copy.tokens) merged.dictionary.AddFrequency(t, 1);
    merged.records.push_back(std::move(copy));
  }
  return merged;
}

Result<FsJoinOutput> FsJoin::Run(const JoinInput& input) const {
  FsJoinConfig config = config_;
  config.rs_boundary = static_cast<RecordId>(input.r.records.size());
  return FsJoin(std::move(config)).Run(MergeJoinInput(input));
}

Result<FsJoinOutput> FsJoinRS(const Corpus& r, const Corpus& s,
                              FsJoinConfig config) {
  return FsJoin(std::move(config)).Run(JoinInput{r, s});
}

}  // namespace fsjoin
