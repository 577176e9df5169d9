#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace fsjoin::bench {

double BenchScale() {
  const char* env = std::getenv("FSJOIN_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

Workload MakeWorkload(const std::string& name, double fraction) {
  const double scale = BenchScale() * fraction;
  SyntheticCorpusConfig config;
  if (name == "email") {
    config = EmailLikeConfig(scale);
  } else if (name == "pubmed") {
    config = PubMedLikeConfig(scale);
  } else if (name == "wiki") {
    config = WikiLikeConfig(scale);
  } else {
    FSJOIN_LOG(Fatal) << "unknown workload " << name;
  }
  return Workload{name, GenerateCorpus(config)};
}

std::vector<Workload> AllWorkloads(double fraction) {
  std::vector<Workload> workloads;
  workloads.push_back(MakeWorkload("email", fraction));
  workloads.push_back(MakeWorkload("pubmed", fraction));
  workloads.push_back(MakeWorkload("wiki", fraction));
  return workloads;
}

FsJoinConfig DefaultFsConfig(double theta) {
  FsJoinConfig config;
  config.theta = theta;
  config.num_vertical_partitions = 30;  // paper: 30 fragments
  config.exec.num_map_tasks = kMapTasks;
  config.exec.num_reduce_tasks = kReduceTasks;
  return config;
}

BaselineConfig DefaultBaselineConfig(double theta) {
  BaselineConfig config;
  config.theta = theta;
  config.exec.num_map_tasks = kMapTasks;
  config.exec.num_reduce_tasks = kReduceTasks;
  return config;
}

double SimulatedMs(const std::vector<mr::JobMetrics>& jobs, uint32_t nodes) {
  mr::ClusterCostModel model;
  return SimulatedMs(jobs, nodes, model);
}

double SimulatedMs(const std::vector<mr::JobMetrics>& jobs, uint32_t nodes,
                   const mr::ClusterCostModel& model) {
  return mr::SimulatePipeline(jobs, nodes, model).total_ms;
}

BenchOptions ParseBenchOptions(const std::string& bench_name, int argc,
                               char** argv) {
  BenchOptions options;
  // Run counts: plain digits up to kMaxRuns, so a sign, a suffix or an
  // overflow is a usage error instead of a silent 0 or a wrapped count.
  constexpr uint64_t kMaxRuns = 1000000;
  auto parse_runs = [](const char* text, int* out) {
    uint64_t v = 0;
    if (!ParseUnsigned(text, kMaxRuns, &v)) return false;
    *out = static_cast<int>(v);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (std::strncmp(arg, "--warmup=", 9) == 0) {
      ok = parse_runs(arg + 9, &options.warmup);
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      ok = parse_runs(arg + 9, &options.repeat);
      options.repeat = std::max(1, options.repeat);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      options.json_path = arg + 7;
    } else if (std::strcmp(arg, "--json") == 0) {
      options.json_path = "BENCH_" + bench_name + ".json";
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bad argument %s\nusage: %s [--warmup=N] [--repeat=N] "
                   "[--json[=PATH]]\n",
                   arg, bench_name.c_str());
      std::exit(2);
    }
  }
  return options;
}

namespace {

// Enough escaping for the names this repo generates (config labels); keeps
// the writer dependency-free.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void WriteBenchJson(const BenchOptions& options, const std::string& bench_name,
                    const std::vector<BenchRecord>& records) {
  if (options.json_path.empty()) return;
  std::ofstream out(options.json_path);
  if (!out) {
    FSJOIN_LOG(Error) << "cannot write " << options.json_path;
    return;
  }
  char buf[256];
  out << "{\n  \"bench\": \"" << JsonEscape(bench_name) << "\",\n";
  std::snprintf(buf, sizeof(buf), "  \"scale\": %.4f,\n", BenchScale());
  out << buf;
  out << "  \"warmup\": " << options.warmup << ",\n";
  out << "  \"repeat\": " << options.repeat << ",\n";
  out << "  \"results\": [";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << (i == 0 ? "\n" : ",\n");
    std::snprintf(buf, sizeof(buf),
                  "      \"wall_micros\": %.1f,\n"
                  "      \"shuffle_bytes\": %llu,\n"
                  "      \"peak_group_bytes\": %llu,\n"
                  "      \"simulated_ms\": %.3f,\n"
                  "      \"spilled_bytes\": %llu,\n"
                  "      \"spill_runs\": %u\n",
                  r.wall_micros,
                  static_cast<unsigned long long>(r.shuffle_bytes),
                  static_cast<unsigned long long>(r.peak_group_bytes),
                  r.simulated_ms,
                  static_cast<unsigned long long>(r.spilled_bytes),
                  r.spill_runs);
    out << "    {\n      \"name\": \"" << JsonEscape(r.name) << "\",\n"
        << buf << "    }";
  }
  out << "\n  ]\n}\n";
  std::printf("wrote %s (%zu results)\n", options.json_path.c_str(),
              records.size());
}

double MinWallMicros(const BenchOptions& options,
                     const std::function<void()>& fn) {
  for (int i = 0; i < options.warmup; ++i) fn();
  double best = 0;
  for (int i = 0; i < options.repeat; ++i) {
    WallTimer timer;
    fn();
    const double micros = static_cast<double>(timer.ElapsedMicros());
    if (i == 0 || micros < best) best = micros;
  }
  return best;
}

uint64_t MaxGroupBytes(const mr::JobMetrics& job) {
  uint64_t max_group = 0;
  for (const mr::TaskMetrics& task : job.reduce_tasks) {
    max_group = std::max(max_group, task.max_group_bytes);
  }
  return max_group;
}

void PrintBanner(const std::string& experiment, const std::string& claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf(
      "workloads: synthetic Email/PubMed/Wiki analogues (DESIGN.md); "
      "scale=%.2f\n",
      BenchScale());
  std::printf(
      "sim<N> = replay of measured task costs on N simulated Hadoop "
      "workers\n");
  std::printf("================================================================\n");
}

}  // namespace fsjoin::bench
