// perfbench harness entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR [--smoke] [--corrupt]
//
// Workloads: xmark-serial, xmark-multi, medline-sharded, medline-serve.
// Prints one JSON record (metrics, operation counts, provenance) as the
// last line of stdout; exits 1 when any operation failed or any output
// differed from the oracle. perfbench/run.py builds and wraps it.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"
#include "simd/simd.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --work-dir DIR [--smoke] "
               "[--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (arg == "--corrupt") {
      cfg.corrupt = true;
      continue;
    }
    if (v == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (arg == "--trace") {
      cfg.trace = std::atoi(v) != 0;
    } else if (arg == "--bin-dir") {
      cfg.bin_dir = v;
    } else if (arg == "--work-dir") {
      cfg.work_dir = v;
    } else {
      return Usage();
    }
  }
  Kind kind;
  if (!ParseKind(cfg.workload, &kind) || cfg.bin_dir.empty() ||
      cfg.work_dir.empty() || cfg.seconds <= 0) {
    return Usage();
  }
  cfg.threads = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (cfg.threads < 1) cfg.threads = 1;

  Record rec;
  rec.ProvStr("workload", cfg.workload);
  rec.ProvNum("seed", static_cast<double>(cfg.seed));
  rec.ProvNum("seconds", cfg.seconds);
  rec.ProvNum("trace", cfg.trace ? 1 : 0);
  rec.Prov("smoke", cfg.smoke ? "true" : "false");
  rec.ProvNum("nproc", cfg.threads);
  rec.ProvStr("isa", smpx::simd::IsaName(smpx::simd::ActiveIsa()));
  rec.ProvStr("compiler", PERFBENCH_COMPILER);
  rec.ProvStr("build_type", PERFBENCH_BUILD_TYPE);

  Inputs in;
  std::string err;
  const auto t0 = Clock::now();
  if (!MakeInputs(cfg, kind, &in, &err)) {
    std::fprintf(stderr, "perfbench: inputs: %s\n", err.c_str());
    return 1;
  }
  rec.ProvNum("input_bytes", static_cast<double>(in.total_bytes()));
  rec.ProvNum("documents", static_cast<double>(in.docs.size()));
  rec.ProvNum("queries", static_cast<double>(in.queries.size()));
  rec.ProvNum("inputs_s", Seconds(t0, Clock::now()));

  if (cfg.trace) {
    RunTrace(cfg, in, &rec);
  } else if (kind == Kind::kMedlineServe) {
    RunServe(cfg, in, &rec);
  } else {
    RunOffline(cfg, in, &rec);
  }
  std::printf("%s\n", rec.ToJson().c_str());
  return rec.failed == 0 && rec.attempted > 0 ? 0 : 1;
}
