// fsjoin_fuzz — differential fuzz driver for the FS-Join repository.
//
// For every seed it builds an adversarial scenario corpus, draws a join
// shape (self join, or an R-S two-collection join with |R|:|S| ratio in
// {1:1, 1:10, 10:1, |S|=0} — cross-collection near-threshold pairs planted
// across the boundary), computes the serial brute-force oracle, samples a
// lattice of configurations across all four algorithms (FS-Join, Vernica,
// V-Smart-Join, MassJoin), runs each and checks every invariant (result ==
// oracle, partial-overlap conservation, no same-side pair in R-S mode,
// filter-counter balance, JobMetrics accounting, cross-config digest
// identity). Failures are delta-debugged into a minimal repro printed as a
// ready-to-paste C++ test case; in R-S mode the minimizer shrinks both
// collections, recomputing the boundary as records fall away.
//
// All output is deterministic: same flags — byte-identical stdout and the
// same exit code (0 clean, 1 failures found, 2 usage error).
//
// Usage:
//   fsjoin_fuzz --seed 42                 one seed
//   fsjoin_fuzz --seeds 1:50 --lattice 8  seed range [1, 50), 8 points each
//   fsjoin_fuzz --fault segl              inject +1 into SegL required
//                                         overlap (self-test: must FAIL)
//   fsjoin_fuzz --no-minimize             report failures without shrinking
//   fsjoin_fuzz --repro-out PATH          also write minimized repros to PATH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "check/sweeper.h"
#include "core/filters.h"
#include "mr/worker.h"
#include "util/string_util.h"

namespace {

void PrintUsage(std::FILE* stream) {
  std::fprintf(
      stream,
      "usage: fsjoin_fuzz [options]\n"
      "  --seed N          fuzz the single seed N (default: 1)\n"
      "  --seeds A:B       fuzz the half-open seed range [A, B)\n"
      "  --lattice N       configurations sampled per seed (default: 8)\n"
      "  --max-failures N  stop after N failing seeds, 0 = no cap "
      "(default: 4)\n"
      "  --no-minimize     skip delta-debugging of failures\n"
      "  --fault none|segl|segi\n"
      "                    inject a +1 off-by-one into the named filter's\n"
      "                    required-overlap bound (harness self-test)\n"
      "  --repro-out PATH  write minimized repro test cases to PATH\n"
      "  --help            this text\n");
}

bool ParseUint64(const char* text, uint64_t* value) {
  return fsjoin::ParseUnsigned(text, std::numeric_limits<uint64_t>::max(),
                               value);
}

}  // namespace

int main(int argc, char** argv) {
  // Subprocess-runner children re-exec this binary in --worker-task mode;
  // the lattice samples that runner, so the fuzz driver must speak it.
  if (const int code = fsjoin::mr::WorkerTaskMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  using fsjoin::FilterFaultInjection;
  using fsjoin::check::RunSweep;
  using fsjoin::check::SweepFailure;
  using fsjoin::check::SweepOptions;
  using fsjoin::check::SweepReport;

  SweepOptions options;
  options.seed_begin = 1;
  options.seed_count = 1;
  FilterFaultInjection fault;
  std::string fault_name = "none";
  std::string repro_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr || !ParseUint64(v, &options.seed_begin)) {
        std::fprintf(stderr, "fsjoin_fuzz: bad --seed\n");
        return 2;
      }
      options.seed_count = 1;
    } else if (arg == "--seeds") {
      const char* v = next();
      const char* colon = v == nullptr ? nullptr : std::strchr(v, ':');
      uint64_t begin = 0, end = 0;
      if (colon == nullptr ||
          !ParseUint64(std::string(v, colon).c_str(), &begin) ||
          !ParseUint64(colon + 1, &end) || end <= begin) {
        std::fprintf(stderr, "fsjoin_fuzz: bad --seeds, want A:B with A<B\n");
        return 2;
      }
      options.seed_begin = begin;
      options.seed_count = end - begin;
    } else if (arg == "--lattice") {
      const char* v = next();
      uint64_t n = 0;
      if (v == nullptr || !ParseUint64(v, &n) || n == 0) {
        std::fprintf(stderr, "fsjoin_fuzz: bad --lattice\n");
        return 2;
      }
      options.lattice_points = static_cast<size_t>(n);
    } else if (arg == "--max-failures") {
      const char* v = next();
      uint64_t n = 0;
      if (v == nullptr || !ParseUint64(v, &n)) {
        std::fprintf(stderr, "fsjoin_fuzz: bad --max-failures\n");
        return 2;
      }
      options.max_failures = static_cast<size_t>(n);
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--fault") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "fsjoin_fuzz: --fault needs a value\n");
        return 2;
      }
      fault_name = v;
      if (fault_name == "none") {
        fault = FilterFaultInjection{};
      } else if (fault_name == "segl") {
        fault.segl_required_bias = 1;
      } else if (fault_name == "segi") {
        fault.segi_required_bias = 1;
      } else {
        std::fprintf(stderr, "fsjoin_fuzz: unknown --fault '%s'\n", v);
        return 2;
      }
    } else if (arg == "--repro-out") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "fsjoin_fuzz: --repro-out needs a path\n");
        return 2;
      }
      repro_out = v;
    } else {
      std::fprintf(stderr, "fsjoin_fuzz: unknown option '%s'\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }

  std::printf("fsjoin_fuzz: seeds [%llu, %llu) x %zu lattice points, "
              "fault=%s\n",
              static_cast<unsigned long long>(options.seed_begin),
              static_cast<unsigned long long>(options.seed_begin +
                                              options.seed_count),
              options.lattice_points, fault_name.c_str());

  fsjoin::ScopedFilterFault scoped_fault(fault);
  const SweepReport report = RunSweep(options);
  std::fputs(report.Summary().c_str(), stdout);

  if (!repro_out.empty() && !report.ok()) {
    std::ofstream out(repro_out);
    if (!out) {
      std::fprintf(stderr, "fsjoin_fuzz: cannot write '%s'\n",
                   repro_out.c_str());
      return 2;
    }
    out << "// Minimized repros from fsjoin_fuzz --seeds "
        << options.seed_begin << ":"
        << options.seed_begin + options.seed_count << " --fault "
        << fault_name << "\n\n";
    for (const SweepFailure& failure : report.failures) {
      if (failure.minimized) out << failure.repro.ToCppTestCase() << "\n";
    }
  }
  return report.ok() ? 0 : 1;
}
