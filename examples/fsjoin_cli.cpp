// Command-line set similarity join over text files: one record per line.
//
//   fsjoin_cli --input corpus.txt --theta 0.8 [options]
//
// Options:
//   --input PATH        the (left) input file: the whole collection for a
//                       self join, the R side for --join rs     (required)
//   --join MODE         self | rs                               [self]
//   --right PATH        S side of an R-S join; implies --join rs. Output
//                       pairs are "r s sim" with s re-based into S's own
//                       id space
//   --rs PATH           alias for --join rs --right PATH
//   --theta X           similarity threshold in (0, 1]        [0.8]
//   --function NAME     jaccard | dice | cosine               [jaccard]
//   --tokenizer NAME    word | whitespace | qgramN (e.g. qgram3) [word]
//   --fragments N       vertical partitions                   [30]
//   --horizontal N      horizontal length pivots (0 = off)    [0]
//   --method NAME       loop | index | prefix                 [prefix]
//   --auto              cost-based auto-tuning: sample-refined pivots,
//                       skew-triggered horizontal splitting, per-fragment
//                       join method + kernel. Explicitly passed knobs
//                       (--method, --kernel, --horizontal) stay pinned and
//                       override the tuner, with the override logged.
//   --sample-rate X     tuning sample rate in (0, 1]; requires --auto
//                       [0.05]
//   --aggressive        paper-aggressive segment prefixes (faster,
//                       may miss borderline pairs)
//   --backend NAME      mr | flow (execution backend)         [mr]
//   --kernel NAME       auto | scalar | packed | simd overlap kernel
//                       family for fragment-join verification [auto]
//   --threads N         engine worker threads                 [0 = inline]
//   --parallel-join     morsel-parallel fragment joins (same results,
//                       work-stealing over --threads workers)
//   --morsel N          probe segments per morsel             [64]
//   --shuffle-mem SIZE  spill the shuffle to disk past this many buffered
//                       bytes; accepts k/m/g suffixes         [0 = in memory]
//   --spill-dir PATH    where spill runs are written (removed when the job
//                       finishes)                             [system temp]
//   --runner NAME       inline | threads | subprocess | cluster task
//                       execution (subprocess forks/re-execs one child per
//                       task attempt and retries failures; cluster runs
//                       tasks on socket-RPC workers)          [threads]
//   --task-retries N    re-executions per failed task on the subprocess
//                       or cluster runner                     [2]
//   --workers LIST      cluster: comma-separated host:port list of
//                       pre-started fsjoin_worker processes to dial
//   --spawn-local-workers N
//                       cluster: fork/exec N loopback workers from this
//                       binary instead of dialing --workers
//   --heartbeat-ms N    cluster liveness probe interval       [2000]
//   --output PATH       write "idA idB similarity" lines      [stdout]
//   --report            print the execution report to stderr
//
// Internal: --worker-task SPEC re-executes one serialized task and exits
// (the subprocess runner launches the binary this way; see mr/worker.h).
// Internal: --worker-serve HOST:PORT turns the process into a cluster
// worker dialing that coordinator (spawn-local mode; see net/worker.h).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "core/fsjoin.h"
#include "mr/worker.h"
#include "net/worker.h"
#include "text/corpus_io.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace {

struct CliOptions {
  std::string input;
  std::string join = "self";
  std::string right;
  std::string output;
  std::string tokenizer = "word";
  std::string method = "prefix";
  std::string function = "jaccard";
  std::string backend = "mr";
  std::string kernel = "auto";
  std::string runner = "threads";
  std::string spill_dir;
  std::string workers;
  int spawn_local_workers = 0;
  int heartbeat_ms = 2000;
  int task_retries = 2;
  double theta = 0.8;
  uint32_t fragments = 30;
  uint32_t horizontal = 0;
  size_t threads = 0;
  size_t morsel = 64;
  uint64_t shuffle_mem = 0;
  bool parallel_join = false;
  bool aggressive = false;
  bool report = false;
  bool auto_tune = false;
  double sample_rate = 0.0;
  // Which knobs were passed explicitly: with --auto they stay pinned and
  // the override is logged instead of being silently ignored.
  bool method_set = false;
  bool kernel_set = false;
  bool horizontal_set = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --input FILE [--join self|rs] [--right FILE] "
               "[--rs FILE] [--theta X] "
               "[--function jaccard|dice|cosine] [--tokenizer "
               "word|whitespace|qgramN] [--fragments N] [--horizontal N] "
               "[--method loop|index|prefix] [--auto] [--sample-rate X] "
               "[--aggressive] "
               "[--backend mr|flow] [--kernel auto|scalar|packed|simd] "
               "[--threads N] "
               "[--parallel-join] [--morsel N] "
               "[--shuffle-mem SIZE] [--spill-dir DIR] "
               "[--runner inline|threads|subprocess|cluster] "
               "[--task-retries N] "
               "[--workers host:port,...] [--spawn-local-workers N] "
               "[--heartbeat-ms N] "
               "[--output FILE] [--report]\n",
               argv0);
  return 2;
}

// Parses "262144", "256k", "64m" or "1g" into bytes; returns false on junk.
bool ParseByteSize(const char* text, uint64_t* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || value < 0) return false;
  double mult = 1.0;
  if (*end == 'k' || *end == 'K') {
    mult = 1024.0;
    ++end;
  } else if (*end == 'm' || *end == 'M') {
    mult = 1024.0 * 1024.0;
    ++end;
  } else if (*end == 'g' || *end == 'G') {
    mult = 1024.0 * 1024.0 * 1024.0;
    ++end;
  }
  if (*end != '\0') return false;
  *out = static_cast<uint64_t>(value * mult);
  return true;
}

int BadCount(const char* argv0, const std::string& flag) {
  std::fprintf(stderr, "bad %s value: want a non-negative integer in range\n",
               flag.c_str());
  return Usage(argv0);
}

// Parses a non-negative integer flag value that fits T; false on a sign,
// junk, a missing value or overflow (the caller prints the usage line).
template <typename T>
bool ParseCount(const char* text, T* out) {
  uint64_t value = 0;
  if (text == nullptr ||
      !fsjoin::ParseUnsigned(text, std::numeric_limits<T>::max(), &value)) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

fsjoin::Result<std::unique_ptr<fsjoin::Tokenizer>> MakeTokenizer(
    const std::string& name) {
  if (name == "word") {
    return std::unique_ptr<fsjoin::Tokenizer>(new fsjoin::WordTokenizer());
  }
  if (name == "whitespace") {
    return std::unique_ptr<fsjoin::Tokenizer>(
        new fsjoin::WhitespaceTokenizer());
  }
  if (name.rfind("qgram", 0) == 0) {
    int q = 0;
    if (!ParseCount(name.c_str() + 5, &q) || q < 1) {
      return fsjoin::Status::InvalidArgument("bad qgram size");
    }
    return std::unique_ptr<fsjoin::Tokenizer>(
        new fsjoin::QGramTokenizer(static_cast<size_t>(q)));
  }
  return fsjoin::Status::InvalidArgument("unknown tokenizer: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode: when launched as `fsjoin_cli --worker-task spec`, execute
  // that one task and exit. Must run before any CLI work so a re-execed
  // child never re-runs the whole join.
  if (const int code = fsjoin::mr::WorkerTaskMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  // Cluster worker mode: `fsjoin_cli --worker-serve host:port` (how
  // --spawn-local-workers re-execs this binary) serves tasks until the
  // coordinator shuts the session down.
  if (const int code = fsjoin::net::WorkerServeMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--input") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.input = v;
    } else if (arg == "--join") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.join = v;
    } else if (arg == "--right") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.right = v;
      if (opts.join == "self") opts.join = "rs";
    } else if (arg == "--rs") {  // alias for --join rs --right FILE
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.right = v;
      opts.join = "rs";
    } else if (arg == "--output") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.output = v;
    } else if (arg == "--theta") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.theta = std::atof(v);
    } else if (arg == "--function") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.function = v;
    } else if (arg == "--tokenizer") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.tokenizer = v;
    } else if (arg == "--method") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.method = v;
      opts.method_set = true;
    } else if (arg == "--auto") {
      opts.auto_tune = true;
    } else if (arg == "--sample-rate") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.sample_rate = std::atof(v);
    } else if (arg == "--fragments") {
      if (!ParseCount(next(), &opts.fragments)) return BadCount(argv[0], arg);
    } else if (arg == "--horizontal") {
      if (!ParseCount(next(), &opts.horizontal)) return BadCount(argv[0], arg);
      opts.horizontal_set = true;
    } else if (arg == "--backend") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.backend = v;
    } else if (arg == "--kernel") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.kernel = v;
      opts.kernel_set = true;
    } else if (arg == "--threads") {
      if (!ParseCount(next(), &opts.threads)) return BadCount(argv[0], arg);
    } else if (arg == "--parallel-join") {
      opts.parallel_join = true;
    } else if (arg == "--morsel") {
      if (!ParseCount(next(), &opts.morsel)) return BadCount(argv[0], arg);
    } else if (arg == "--shuffle-mem") {
      const char* v = next();
      if (!v || !ParseByteSize(v, &opts.shuffle_mem)) {
        std::fprintf(stderr, "bad --shuffle-mem value\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--spill-dir") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.spill_dir = v;
    } else if (arg == "--runner") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.runner = v;
    } else if (arg == "--task-retries") {
      if (!ParseCount(next(), &opts.task_retries)) {
        return BadCount(argv[0], arg);
      }
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.workers = v;
    } else if (arg == "--spawn-local-workers") {
      if (!ParseCount(next(), &opts.spawn_local_workers)) {
        return BadCount(argv[0], arg);
      }
    } else if (arg == "--heartbeat-ms") {
      if (!ParseCount(next(), &opts.heartbeat_ms)) {
        return BadCount(argv[0], arg);
      }
    } else if (arg == "--aggressive") {
      opts.aggressive = true;
    } else if (arg == "--report") {
      opts.report = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (opts.input.empty()) return Usage(argv[0]);
  if (opts.join != "self" && opts.join != "rs") {
    std::fprintf(stderr, "unknown --join mode: %s (want self|rs)\n",
                 opts.join.c_str());
    return Usage(argv[0]);
  }
  if (opts.join == "rs" && opts.right.empty()) {
    std::fprintf(stderr, "--join rs needs --right FILE\n");
    return Usage(argv[0]);
  }
  const bool rs_mode = opts.join == "rs";

  auto tokenizer_result = MakeTokenizer(opts.tokenizer);
  if (!tokenizer_result.ok()) {
    std::fprintf(stderr, "%s\n", tokenizer_result.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<fsjoin::Tokenizer> tokenizer =
      std::move(tokenizer_result).value();

  auto load = [&](const std::string& path) -> fsjoin::Result<fsjoin::Corpus> {
    auto lines = fsjoin::ReadLines(path);
    if (!lines.ok()) return lines.status();
    return fsjoin::BuildCorpus(*lines, *tokenizer);
  };

  fsjoin::Result<fsjoin::Corpus> r = load(opts.input);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }

  fsjoin::FsJoinConfig config;
  config.theta = opts.theta;
  config.num_vertical_partitions = opts.fragments;
  config.num_horizontal_partitions = opts.horizontal;
  config.exec.num_threads = opts.threads;
  config.exec.parallel_fragment_join = opts.parallel_join;
  config.exec.join_morsel_size = opts.morsel;
  config.exec.shuffle_memory_bytes = opts.shuffle_mem;
  config.exec.spill_dir = opts.spill_dir;
  config.exec.task_retries = opts.task_retries;
  config.exec.workers = opts.workers;
  config.exec.spawn_local_workers = opts.spawn_local_workers;
  config.exec.heartbeat_ms = opts.heartbeat_ms;
  {
    auto runner = fsjoin::mr::RunnerKindFromName(opts.runner);
    if (!runner.ok()) {
      std::fprintf(stderr, "%s\n", runner.status().ToString().c_str());
      return 1;
    }
    config.exec.runner = *runner;
  }
  {
    auto backend = fsjoin::exec::BackendKindFromName(opts.backend);
    if (!backend.ok()) {
      std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
      return 1;
    }
    config.exec.backend = *backend;
  }
  {
    auto kernel = fsjoin::exec::KernelModeFromName(opts.kernel);
    if (!kernel.ok()) {
      std::fprintf(stderr, "%s\n", kernel.status().ToString().c_str());
      return 1;
    }
    config.exec.kernel = *kernel;
  }
  config.aggressive_segment_prefix = opts.aggressive;
  {
    auto fn = fsjoin::SimilarityFunctionFromName(opts.function);
    if (!fn.ok()) {
      std::fprintf(stderr, "%s\n", fn.status().ToString().c_str());
      return 1;
    }
    config.function = *fn;
  }
  if (opts.method == "loop") {
    config.join_method = fsjoin::JoinMethod::kLoop;
  } else if (opts.method == "index") {
    config.join_method = fsjoin::JoinMethod::kIndex;
  } else if (opts.method == "prefix") {
    config.join_method = fsjoin::JoinMethod::kPrefix;
  } else {
    std::fprintf(stderr, "unknown join method: %s\n", opts.method.c_str());
    return 1;
  }
  config.exec.auto_tune = opts.auto_tune;
  config.exec.tune_sample_rate = opts.sample_rate;
  if (opts.auto_tune) {
    // Explicitly passed knobs stay pinned: --auto fills in only what the
    // user left unset, and each override is logged instead of one side
    // silently losing (the old behavior accepted e.g. --auto --method loop
    // and ignored the --method).
    config.pinned.join_method = opts.method_set;
    config.pinned.kernel = opts.kernel_set;
    config.pinned.horizontal = opts.horizontal_set;
    if (opts.method_set) {
      std::fprintf(stderr,
                   "[auto] --method %s set explicitly; pinning it and "
                   "skipping the per-fragment method choice\n",
                   opts.method.c_str());
    }
    if (opts.kernel_set) {
      std::fprintf(stderr,
                   "[auto] --kernel %s set explicitly; pinning it and "
                   "skipping the per-fragment kernel choice\n",
                   opts.kernel.c_str());
    }
    if (opts.horizontal_set) {
      std::fprintf(stderr,
                   "[auto] --horizontal %u set explicitly; pinning it and "
                   "skipping the tuned horizontal split\n",
                   opts.horizontal);
    }
  }

  fsjoin::Result<fsjoin::FsJoinOutput> out =
      [&]() -> fsjoin::Result<fsjoin::FsJoinOutput> {
    if (!rs_mode) return fsjoin::FsJoin(config).Run(*r);
    fsjoin::Result<fsjoin::Corpus> s = load(opts.right);
    if (!s.ok()) return s.status();
    return fsjoin::FsJoinRS(*r, *s, config);
  }();
  if (!out.ok()) {
    std::fprintf(stderr, "join failed: %s\n", out.status().ToString().c_str());
    return 1;
  }

  const fsjoin::RecordId boundary =
      rs_mode ? static_cast<fsjoin::RecordId>(r->NumRecords()) : 0;
  std::FILE* sink = stdout;
  if (!opts.output.empty()) {
    sink = std::fopen(opts.output.c_str(), "w");
    if (sink == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opts.output.c_str());
      return 1;
    }
  }
  for (const fsjoin::SimilarPair& p : out->pairs) {
    if (boundary > 0) {
      std::fprintf(sink, "%u %u %.6f\n", p.a, p.b - boundary, p.similarity);
    } else {
      std::fprintf(sink, "%u %u %.6f\n", p.a, p.b, p.similarity);
    }
  }
  if (sink != stdout) std::fclose(sink);
  if (opts.report) {
    std::fprintf(stderr, "%s\n", out->report.Summary().c_str());
  }
  return 0;
}
