// fsbench: the FS-Join benchmark harness (see README.md in this directory).
//
// One invocation runs one workload for a fixed number of seconds:
//   1. generates the workload's corpus from --seed with a text/generator
//      preset and writes it to text file(s) under --data-dir;
//   2. set-up: loads the file(s) with ReadCorpusText, several times;
//   3. two untimed warm-up joins, then a loop until --seconds elapse: one
//      measured FsJoin::Run and, after every third one, the workload's
//      reference step — serial order + PPJoin (the oracle and COST
//      yardstick) and, where the workload has one, the reference join
//      (hand-set config or inline runner) and its tuner / merge calls —
//      and one more timed load. Interleaving keeps host drift out of the
//      ratios and spreads the set-up samples over the whole run.
// Every join's check::ResultDigest is compared with serial PPJoin on the
// same loaded corpus. The last stdout line is one JSON object with every
// metric this harness computes; fsbench/run.py selects the ones
// BENCHMARK.json names. --trace 1 records spans around each library call
// on alternate iterations and writes Chrome trace-event JSON.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "core/fsjoin.h"
#include "mr/worker.h"
#include "net/worker.h"
#include "sim/global_order.h"
#include "sim/serial_join.h"
#include "text/corpus_io.h"
#include "text/generator.h"
#include "trace.h"
#include "tune/tuner.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace fsbench {
namespace {

using fsjoin::Corpus;
using fsjoin::FsJoinConfig;
using fsjoin::FsJoinReport;
using fsjoin::JoinResultSet;
using fsjoin::Result;
using fsjoin::Status;
using fsjoin::StrFormat;
using fsjoin::WallTimer;

constexpr double kTheta = 0.8;
constexpr auto kFunction = fsjoin::SimilarityFunction::kJaccard;
// ReadCorpusText calls before the first join. One more follows each
// reference step; setup_s is the median of all of them.
constexpr int kSetupRepeats = 5;
// Measured joins per reference step: the reference samples still span
// the run, and most of its time goes to measured joins: about 11 rather
// than 9 per 30 s on email-cluster, so its p90 is not the maximum.
constexpr int kReferenceEvery = 3;
constexpr double kBytesPerMb = 1e6;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;  ///< multiplies every record count (smoke runs)
  std::string data_dir = ".";
  std::string trace_out;
};

/// A workload: its corpus, the measured join and, optionally, the
/// reference join run beside it in every iteration.
struct Workload {
  fsjoin::SyntheticCorpusConfig corpus;
  bool rs = false;  ///< R = the first 1/11 of the records, S = the rest
  FsJoinConfig join;
  std::optional<FsJoinConfig> reference;
};

/// The bench's paper defaults: Even-TF, prefix join, all filters, kernel
/// auto, 30 fragments over 30 map and 30 reduce tasks.
FsJoinConfig DefaultFsConfig() {
  FsJoinConfig config;
  config.theta = kTheta;
  config.function = kFunction;
  config.num_vertical_partitions = 30;
  config.exec.num_map_tasks = 30;
  config.exec.num_reduce_tasks = 30;
  return config;
}

Result<Workload> MakeWorkload(const Options& opt) {
  Workload w;
  w.join = DefaultFsConfig();
  if (opt.workload == "wiki-self") {
    // 7,500 short records: fragment join, verification and the MR shuffle
    // do nearly all the work; no pool, tuner or network.
    w.corpus = fsjoin::WikiLikeConfig(0.5 * opt.scale);
  } else if (opt.workload == "pubmed-rs-auto") {
    // 1:10 R-S join under --auto on 4 threads, beside the hand defaults.
    w.corpus = fsjoin::PubMedLikeConfig(0.5 * opt.scale);
    w.rs = true;
    w.join.exec.num_threads = 4;
    w.reference = w.join;
    w.join.exec.auto_tune = true;
  } else if (opt.workload == "email-cluster") {
    // 1,500 long records on two spawn-local socket workers, beside the
    // inline runner. Each worker's shuffle server polls its accept loop
    // every 200 ms, so a cluster join's wall time moves in ~0.2 s steps as
    // its work crosses a poll boundary; at 375 records that step was a
    // quarter of the join and run medians flipped between two levels.
    w.corpus = fsjoin::EmailLikeConfig(1.0 * opt.scale);
    w.reference = w.join;
    w.join.exec.runner = fsjoin::mr::RunnerKind::kCluster;
    w.join.exec.spawn_local_workers = 2;
  } else {
    return Status::InvalidArgument("unknown workload: " + opt.workload);
  }
  w.corpus.seed = opt.seed;
  return w;
}

// ---- Measurement helpers ------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The 90th percentile by nearest rank: the ceil(0.9 n)-th smallest
/// sample. Below ten samples that is the maximum; join_s.samples states n.
double P90(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = (9 * v.size() + 9) / 10;  // ceil(0.9 n), 1-based
  return v[rank - 1];
}

/// Tasks a join's runner executes at once: cluster workers, pool threads,
/// or 1 inline.
uint32_t Slots(const FsJoinConfig& config) {
  if (config.exec.runner == fsjoin::mr::RunnerKind::kCluster) {
    return static_cast<uint32_t>(config.exec.spawn_local_workers);
  }
  return static_cast<uint32_t>(std::max<size_t>(config.exec.num_threads, 1));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Returns freed heap to the kernel, then resets the kernel's peak-RSS
/// mark (VmHWM) to the current RSS, so the next peak is one join's own and
/// not heap the allocator kept from the previous one.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Keeps freed heap in the process from here on: no mmap-backed chunks and
/// no trimming. Under glibc's defaults its dynamic mmap threshold moves
/// with each join's frees, so whether a join re-faults its transient
/// buffers (~250 MB on wiki-self) flips from join to join, and join wall
/// times split into two levels about 30% apart. Called after the first
/// warm-up, so peak_rss_mb still reads the default allocator.
bool PinHeap() {
  return mallopt(M_MMAP_MAX, 0) == 1 &&
         mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max()) == 1;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) * 1024.0 / kBytesPerMb;
    }
  }
  return 0.0;
}

double ChildrenPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kBytesPerMb;
}

double Micros(int64_t us) { return static_cast<double>(us) / 1e6; }

// ---- The run -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One measured join.
struct JoinSample {
  double wall_s = 0.0;
  FsJoinReport report;
};

class Bench {
 public:
  Bench(Options opt, Workload w)
      : opt_(std::move(opt)), w_(std::move(w)), tracer_(opt_.trace),
        off_(false) {}

  Status Run();
  void Print() const;
  bool correct() const { return failed_ == 0 && oracle_ok_; }

 private:
  Status Generate();
  /// Loads the workload's file(s) into `a` (and `b`): one set-up sample.
  Status Load(Tracer* tr, Corpus* a, Corpus* b);
  Status ReferenceStep(Tracer* tr, bool timed);
  Status MeasuredJoin(Tracer* tr);
  /// Runs one FS-Join, checks its digest and counts it.
  Result<fsjoin::FsJoinOutput> JoinAndCheck(Tracer* tr,
                                            const FsJoinConfig& config,
                                            uint64_t join_id,
                                            size_t* run_span);
  std::vector<Metric> Metrics() const;

  std::string DataPath(const char* part) const {
    return StrFormat("%s/%s.seed%llu.x%g.%s.txt", opt_.data_dir.c_str(),
                     opt_.workload.c_str(),
                     static_cast<unsigned long long>(opt_.seed), opt_.scale,
                     part);
  }

  Options opt_;
  Workload w_;
  Tracer tracer_;
  Tracer off_;

  // Loaded inputs: `a` is the self-join corpus or R, `b` is S.
  Corpus a_, b_;
  Corpus merged_;  ///< R ∪ S (R-S workloads); the oracle's corpus
  uint32_t oracle_digest_ = 0;
  uint64_t oracle_pairs_ = 0;
  uint64_t ppjoin_candidates_ = 0;
  bool oracle_ok_ = true;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;

  double peak_rss_mb_ = 0;  ///< of the first (warm-up) join
  std::vector<double> setup_s_;
  std::vector<JoinSample> untraced_, traced_;
  std::vector<double> order_s_, ppjoin_s_, merge_s_, plan_s_, reference_s_;
};

Status Bench::Generate() {
  const Corpus full = fsjoin::GenerateCorpus(w_.corpus);
  if (!w_.rs) return fsjoin::WriteCorpusText(full, DataPath("self"));
  const size_t n = full.records.size();
  const size_t r = std::max<size_t>(n / 11, 1);
  std::vector<fsjoin::RecordId> r_ids, s_ids;
  for (size_t i = 0; i < n; ++i) {
    (i < r ? r_ids : s_ids).push_back(static_cast<fsjoin::RecordId>(i));
  }
  FSJOIN_RETURN_NOT_OK(fsjoin::WriteCorpusText(
      fsjoin::SampleCorpus(full, r_ids), DataPath("r")));
  return fsjoin::WriteCorpusText(fsjoin::SampleCorpus(full, s_ids),
                                 DataPath("s"));
}

Status Bench::Load(Tracer* tr, Corpus* a, Corpus* b) {
  Tracer::Scope scope(tr, "ReadCorpusText", "text", 0);
  WallTimer timer;
  if (w_.rs) {
    FSJOIN_ASSIGN_OR_RETURN(*a, fsjoin::ReadCorpusText(DataPath("r")));
    FSJOIN_ASSIGN_OR_RETURN(*b, fsjoin::ReadCorpusText(DataPath("s")));
  } else {
    FSJOIN_ASSIGN_OR_RETURN(*a, fsjoin::ReadCorpusText(DataPath("self")));
  }
  setup_s_.push_back(timer.ElapsedSeconds());
  return Status::OK();
}

Status Bench::ReferenceStep(Tracer* tr, bool timed) {
  Tracer::Scope step(tr, "reference", "bench", tr->NextJoinId());
  if (w_.rs) {
    Tracer::Scope scope(tr, "MergeJoinInput", "core", 0);
    WallTimer timer;
    merged_ = fsjoin::MergeJoinInput(fsjoin::JoinInput{a_, b_});
    if (timed) merge_s_.push_back(timer.ElapsedSeconds());
  }
  const Corpus& corpus = w_.rs ? merged_ : a_;

  WallTimer order_timer;
  std::optional<fsjoin::GlobalOrder> order;
  {
    Tracer::Scope scope(tr, "GlobalOrder::FromCorpus", "sim", 0);
    order = fsjoin::GlobalOrder::FromCorpus(corpus);
  }
  std::vector<fsjoin::OrderedRecord> ordered;
  {
    Tracer::Scope scope(tr, "ApplyGlobalOrder", "sim", 0);
    ordered = fsjoin::ApplyGlobalOrder(corpus, *order);
  }
  if (timed) order_s_.push_back(order_timer.ElapsedSeconds());

  fsjoin::SerialJoinStats stats;
  JoinResultSet pairs;
  {
    Tracer::Scope scope(tr, "PPJoin", "sim", 0);
    WallTimer timer;
    pairs = fsjoin::PPJoin(ordered, kFunction, kTheta, &stats);
    if (timed) ppjoin_s_.push_back(timer.ElapsedSeconds());
  }
  if (w_.rs) {
    // Keep the pairs that straddle the boundary: the ids are already the
    // merged ones Run(JoinInput) returns (S offset by |R|).
    const auto boundary = static_cast<fsjoin::RecordId>(a_.records.size());
    std::erase_if(pairs, [boundary](const fsjoin::SimilarPair& p) {
      return !(p.a < boundary && boundary <= p.b);
    });
  }
  fsjoin::NormalizeResult(&pairs);
  uint32_t digest = 0;
  {
    Tracer::Scope scope(tr, "check::ResultDigest", "check", 0);
    digest = fsjoin::check::ResultDigest(pairs);
  }
  if (!timed) {
    oracle_digest_ = digest;
    oracle_pairs_ = pairs.size();
    ppjoin_candidates_ = stats.candidates;
  } else if (digest != oracle_digest_) {
    oracle_ok_ = false;  // serial PPJoin disagreed with its first run
  }

  if (!timed) return Status::OK();
  std::fprintf(stderr, "fsbench: reference: order %.4f s, ppjoin %.4f s\n",
               order_s_.back(), ppjoin_s_.back());
  if (w_.join.exec.auto_tune) {
    fsjoin::tune::TuneOptions topt;
    topt.seed = w_.join.seed;
    topt.num_fragments = w_.join.num_vertical_partitions;
    topt.function = kFunction;
    topt.theta = kTheta;
    if (w_.rs) {
      topt.rs_boundary = static_cast<fsjoin::RecordId>(a_.records.size());
    }
    Tracer::Scope scope(tr, "tune::PlanTuning", "tune", 0);
    WallTimer timer;
    const fsjoin::tune::TunePlan plan =
        fsjoin::tune::PlanTuning(corpus, *order, topt);
    plan_s_.push_back(timer.ElapsedSeconds());
  }
  if (w_.reference.has_value()) {
    size_t run_span = 0;
    WallTimer timer;
    Result<fsjoin::FsJoinOutput> out =
        JoinAndCheck(tr, *w_.reference, 0, &run_span);
    reference_s_.push_back(timer.ElapsedSeconds());
    if (out.ok()) {
      tr->AddJobSpans(run_span, out->report.AllJobs(), Slots(*w_.reference));
    }
  }
  return Status::OK();
}

Result<fsjoin::FsJoinOutput> Bench::JoinAndCheck(Tracer* tr,
                                                 const FsJoinConfig& config,
                                                 uint64_t join_id,
                                                 size_t* run_span) {
  ++attempted_;
  Result<fsjoin::FsJoinOutput> out = Status::OK();
  {
    Tracer::Scope scope(tr, "FsJoin::Run", "core", join_id);
    *run_span = scope.index();
    const fsjoin::FsJoin join(config);
    out = w_.rs ? join.Run(fsjoin::JoinInput{a_, b_}) : join.Run(a_);
  }
  if (!out.ok()) {
    ++failed_;
    std::fprintf(stderr, "fsbench: join failed: %s\n",
                 out.status().ToString().c_str());
    return out;
  }
  uint32_t digest = 0;
  {
    Tracer::Scope scope(tr, "check::ResultDigest", "check", join_id);
    digest = fsjoin::check::ResultDigest(out->pairs);
  }
  if (digest != oracle_digest_) {
    ++failed_;
    std::fprintf(stderr,
                 "fsbench: digest %08x != PPJoin oracle %08x (%zu vs %llu "
                 "pairs)\n",
                 digest, oracle_digest_, out->pairs.size(),
                 static_cast<unsigned long long>(oracle_pairs_));
  }
  return out;
}

Status Bench::MeasuredJoin(Tracer* tr) {
  const uint64_t join_id = tr->NextJoinId();
  Tracer::Scope root(tr, "join", "bench", join_id);
  size_t run_span = 0;
  WallTimer timer;
  Result<fsjoin::FsJoinOutput> out = JoinAndCheck(tr, w_.join, join_id,
                                                  &run_span);
  JoinSample sample;
  sample.wall_s = timer.ElapsedSeconds();
  std::fprintf(stderr, "fsbench: join %zu%s: %.4f s\n",
               traced_.size() + untraced_.size() + 1,
               tr->enabled() ? " (traced)" : "", sample.wall_s);
  if (!out.ok()) return Status::OK();  // counted in failed_
  tr->AddJobSpans(run_span, out->report.AllJobs(), Slots(w_.join));
  sample.report = std::move(out->report);
  (tr->enabled() ? traced_ : untraced_).push_back(std::move(sample));
  return Status::OK();
}

Status Bench::Run() {
  FSJOIN_RETURN_NOT_OK(Generate());
  for (int i = 0; i < kSetupRepeats; ++i) {
    FSJOIN_RETURN_NOT_OK(Load(&tracer_, &a_, &b_));
  }
  FSJOIN_RETURN_NOT_OK(ReferenceStep(&off_, /*timed=*/false));
  // Warm-up: the first join pays page faults and allocator growth that
  // later joins do not, so it is not timed. Its peak RSS is the one
  // reported: the process history before it is the same on every run of a
  // seed, while later joins' peaks flip with the allocator's reuse of the
  // previous join's heap.
  {
    size_t run_span = 0;
    ResetPeakRss();
    (void)JoinAndCheck(&off_, w_.join, 0, &run_span);
    peak_rss_mb_ = PeakRssMb();
  }
  // A second untimed join grows the pinned heap to its working size.
  if (!PinHeap()) return Status::Internal("mallopt failed");
  {
    size_t run_span = 0;
    (void)JoinAndCheck(&off_, w_.join, 0, &run_span);
  }

  // The traced run alternates traced and untraced iterations, so the
  // tracing overhead is measured inside one process.
  WallTimer window;
  const int min_iterations = opt_.trace ? 2 : 1;
  for (int i = 0; i < min_iterations || window.ElapsedSeconds() < opt_.seconds;
       ++i) {
    Tracer* tr = opt_.trace && i % 2 == 0 ? &tracer_ : &off_;
    FSJOIN_RETURN_NOT_OK(MeasuredJoin(tr));
    if (i % kReferenceEvery != 0) continue;
    FSJOIN_RETURN_NOT_OK(ReferenceStep(tr, /*timed=*/true));
    Corpus a, b;
    FSJOIN_RETURN_NOT_OK(Load(tr, &a, &b));
  }
  if (opt_.trace && !opt_.trace_out.empty()) {
    FSJOIN_RETURN_NOT_OK(tracer_.WriteChromeJson(opt_.trace_out));
  }
  return Status::OK();
}

std::vector<Metric> Bench::Metrics() const {
  std::vector<Metric> m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto walls = [](const std::vector<JoinSample>& s) {
    std::vector<double> v;
    for (const JoinSample& j : s) v.push_back(j.wall_s);
    return v;
  };
  // Per-layer numbers come from the traced joins when tracing, from all
  // joins otherwise.
  const std::vector<JoinSample>& layer = opt_.trace ? traced_ : untraced_;
  auto median_of = [&layer](auto fn) {
    std::vector<double> v;
    for (const JoinSample& j : layer) v.push_back(fn(j));
    return Median(v);
  };

  // ---- End to end (untraced joins) ----
  const std::vector<double> join_walls = walls(untraced_);
  const double join_p50 = Median(join_walls);
  add("join_s.p50", join_p50, "s");
  add("join_s.tail", P90(join_walls), "s");
  add("join_s.samples", static_cast<double>(join_walls.size()), "count");
  add("setup_s", Median(setup_s_), "s");
  add("peak_rss_mb", peak_rss_mb_, "MB");
  auto shuffle_mb = [](const JoinSample& j) {
    double bytes = 0;
    for (const auto& job : j.report.AllJobs()) bytes += job.shuffle_bytes;
    return bytes / kBytesPerMb;
  };
  {
    std::vector<double> v;
    for (const JoinSample& j : untraced_) v.push_back(shuffle_mb(j));
    add("shuffle_mb", Median(v), "MB");
  }
  add("failed_frac", Ratio(static_cast<double>(failed_),
                           static_cast<double>(attempted_)),
      "ratio");

  // ---- Tracing overhead ----
  const double layer_p50 = Median(walls(layer));
  add("trace.join_s.p50", layer_p50, "s");
  add("trace.overhead_s", opt_.trace ? layer_p50 - join_p50 : 0.0, "s");

  // ---- sim: the serial reference ----
  const double ppjoin_s = Median(ppjoin_s_);
  add("sim.order_s", Median(order_s_), "s");
  add("sim.ppjoin_s", ppjoin_s, "s");
  add("sim.ppjoin_candidates", static_cast<double>(ppjoin_candidates_),
      "count");
  add("sim.cost_ratio", Ratio(layer_p50, ppjoin_s), "ratio");

  // ---- core: driver, jobs, fragment joins, verification ----
  add("core.driver_s", median_of([](const JoinSample& j) {
        double jobs = 0;
        for (const auto& job : j.report.AllJobs()) {
          jobs += Micros(job.total_wall_micros);
        }
        return j.wall_s - jobs;
      }),
      "s");
  add("core.merge_input_s", Median(merge_s_), "s");
  add("core.ordering.wall_s", median_of([](const JoinSample& j) {
        return Micros(j.report.ordering_job.total_wall_micros);
      }),
      "s");
  add("core.ordering.shuffle_mb", median_of([](const JoinSample& j) {
        return j.report.ordering_job.shuffle_bytes / kBytesPerMb;
      }),
      "MB");
  add("core.filtering.wall_s", median_of([](const JoinSample& j) {
        return Micros(j.report.filtering_job.total_wall_micros);
      }),
      "s");
  add("core.filtering.map_busy_s", median_of([](const JoinSample& j) {
        return Micros(j.report.filtering_job.map_wall_micros);
      }),
      "s");
  add("core.filtering.reduce_busy_s", median_of([](const JoinSample& j) {
        return Micros(j.report.filtering_job.reduce_wall_micros);
      }),
      "s");
  add("core.filtering.reduce_max_task_s", median_of([](const JoinSample& j) {
        int64_t max_us = 0;
        for (const auto& t : j.report.filtering_job.reduce_tasks) {
          max_us = std::max(max_us, t.wall_micros);
        }
        return Micros(max_us);
      }),
      "s");
  add("core.filtering.reduce_skew", median_of([](const JoinSample& j) {
        return j.report.filtering_job.ReduceSkew();
      }),
      "ratio");
  add("core.filtering.shuffle_mb", median_of([](const JoinSample& j) {
        return j.report.filtering_job.shuffle_bytes / kBytesPerMb;
      }),
      "MB");

  const fsjoin::FilterCounters f =
      layer.empty() ? fsjoin::FilterCounters{} : layer.front().report.filters;
  const double results =
      layer.empty() ? 0.0
                    : static_cast<double>(layer.front().report.result_pairs);
  const double candidates =
      layer.empty() ? 0.0
                    : static_cast<double>(layer.front().report.candidate_pairs);
  add("core.fragment.pairs_considered", f.pairs_considered, "count");
  add("core.fragment.pruned_role", f.pruned_role, "count");
  add("core.fragment.pruned_strl", f.pruned_strl, "count");
  add("core.fragment.pruned_segl", f.pruned_segl, "count");
  add("core.fragment.pruned_segi", f.pruned_segi, "count");
  add("core.fragment.pruned_segd", f.pruned_segd, "count");
  add("core.fragment.empty_overlap", f.empty_overlap, "count");
  add("core.fragment.emitted", f.emitted, "count");
  add("core.fragment.useful_ratio",
      Ratio(results, static_cast<double>(f.emitted)), "ratio");

  add("core.verify.wall_s", median_of([](const JoinSample& j) {
        return Micros(j.report.verification_job.total_wall_micros);
      }),
      "s");
  add("core.verify.shuffle_mb", median_of([](const JoinSample& j) {
        return j.report.verification_job.shuffle_bytes / kBytesPerMb;
      }),
      "MB");
  add("core.verify.candidates", candidates, "count");
  add("core.verify.precision", Ratio(results, candidates), "ratio");

  // ---- mr: engine and runners ----
  // busy / (wall x slots) is the share of the runner's task slots doing
  // task work; engine_s is the wall not covered by it. On an inline run
  // (one slot) engine_s = sum of (job wall - map busy - reduce busy).
  double tasks = 0, attempts = 0;
  if (!layer.empty()) {
    for (const auto& job : layer.front().report.AllJobs()) {
      for (const auto* v : {&job.map_tasks, &job.reduce_tasks}) {
        tasks += static_cast<double>(v->size());
        for (const auto& t : *v) attempts += t.attempts;
      }
    }
  }
  const double slots = Slots(w_.join);
  add("mr.tasks", tasks, "count");
  add("mr.attempts", attempts, "count");
  add("mr.engine_s", median_of([slots](const JoinSample& j) {
        double engine = 0;
        for (const auto& job : j.report.AllJobs()) {
          engine += Micros(job.total_wall_micros) -
                    Micros(job.map_wall_micros + job.reduce_wall_micros) /
                        slots;
        }
        return engine;
      }),
      "s");
  add("mr.busy_frac", median_of([slots](const JoinSample& j) {
        double wall = 0, busy = 0;
        for (const auto& job : j.report.AllJobs()) {
          wall += Micros(job.total_wall_micros);
          busy += Micros(job.map_wall_micros + job.reduce_wall_micros);
        }
        return Ratio(busy, wall * slots);
      }),
      "ratio");

  // ---- tune: --auto against the hand defaults ----
  const bool tuned = w_.join.exec.auto_tune;
  const double reference_s = Median(reference_s_);
  add("tune.plan_s", Median(plan_s_), "s");
  add("tune.fragments",
      layer.empty()
          ? 0.0
          : static_cast<double>(layer.front().report.pivots.size() + 1),
      "count");
  add("tune.hand_join_s", tuned ? reference_s : 0.0, "s");
  add("tune.regret", tuned ? Ratio(layer_p50, reference_s) : 0.0, "ratio");

  // ---- net: the cluster runner against inline ----
  const bool cluster = w_.join.exec.runner == fsjoin::mr::RunnerKind::kCluster;
  const double overhead = cluster ? layer_p50 - reference_s : 0.0;
  add("net.inline_join_s", cluster ? reference_s : 0.0, "s");
  add("net.overhead_s", overhead, "s");
  add("net.overhead_per_task_ms", Ratio(overhead * 1e3, tasks), "ms");
  add("net.worker_peak_rss_mb", cluster ? ChildrenPeakRssMb() : 0.0, "MB");

  // ---- store: spill and merge ----
  add("store.spilled_mb", median_of([](const JoinSample& j) {
        double bytes = 0;
        for (const auto& job : j.report.AllJobs()) bytes += job.spilled_bytes;
        return bytes / kBytesPerMb;
      }),
      "MB");
  add("store.spill_runs", median_of([](const JoinSample& j) {
        double runs = 0;
        for (const auto& job : j.report.AllJobs()) runs += job.spill_runs;
        return runs;
      }),
      "count");
  return m;
}

void Bench::Print() const {
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const Metric& metric : Metrics()) {
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", metric.name.c_str(), metric.value,
                      metric.unit.c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload wiki-self|pubmed-rs-auto|email-cluster\n"
               "          [--seed N] [--seconds S] [--trace 0|1]\n"
               "          [--scale F] [--data-dir DIR] [--trace-out PATH]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--scale") {
      opt.scale = std::atof(value);
    } else if (arg == "--data-dir") {
      opt.data_dir = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!(opt.scale > 0) || !(opt.seconds >= 0)) return Usage(argv[0]);
  Result<Workload> workload = MakeWorkload(opt);
  if (!workload.ok()) {
    std::fprintf(stderr, "fsbench: %s\n",
                 workload.status().ToString().c_str());
    return Usage(argv[0]);
  }
  Bench bench(std::move(opt), std::move(workload).value());
  if (const Status st = bench.Run(); !st.ok()) {
    std::fprintf(stderr, "fsbench: %s\n", st.ToString().c_str());
    return 1;
  }
  bench.Print();
  return bench.correct() ? 0 : 1;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  // The cluster runner re-executes this binary as its workers; closure-only
  // jobs fall back to re-executed subprocess tasks.
  if (const int code = fsjoin::mr::WorkerTaskMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  if (const int code = fsjoin::net::WorkerServeMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  return fsbench::Main(argc, argv);
}
