// Offline workloads: smpx exec'd once per operation, timed by the parent
// through wait4 (never by the program's own --stats, which double-counts
// compile and run time).

#include <algorithm>
#include <fstream>

#include "perfbench.h"

namespace perfbench {

namespace {

constexpr size_t kSetupExecs = 5;
constexpr double kSetupSeconds = 2;
constexpr double kMiB = 1 << 20;

}  // namespace

std::vector<OfflineOp> OfflineOps(const Config& cfg, const Inputs& in) {
  const std::string smpx = cfg.bin_dir + "/smpx";
  const std::string base = cfg.work_dir + "/" + in.name + ".out";
  std::vector<OfflineOp> ops;
  for (const Doc& doc : in.docs) {
    if (in.kind == Kind::kXmarkMulti) {
      // One --query-file pass writes out.q<N>.xml per query, each of which
      // must equal that query's independent serial run.
      const std::string qfile = cfg.work_dir + "/" + in.name + ".queries";
      std::ofstream f(qfile);
      for (const Query& q : in.queries) f << q.paths << "\n";
      OfflineOp op;
      op.argv = {smpx, "--dtd", in.dtd_path, "--query-file", qfile, doc.path,
                 base + ".xml"};
      op.input_bytes = doc.text.size();
      for (size_t i = 0; i < in.queries.size(); ++i) {
        op.outputs.emplace_back(base + ".q" + std::to_string(i + 1) + ".xml",
                                doc.expected[i]);
      }
      ops.push_back(std::move(op));
      continue;
    }
    for (size_t i = 0; i < in.queries.size(); ++i) {
      OfflineOp op;
      op.argv = {smpx, "--dtd", in.dtd_path, "--paths", in.queries[i].paths};
      if (in.kind == Kind::kMedlineSharded) {
        op.argv.push_back("--threads");
        op.argv.push_back(std::to_string(cfg.threads));
      }
      op.argv.push_back(doc.path);
      op.argv.push_back(base + ".xml");
      op.input_bytes = doc.text.size();
      op.outputs.emplace_back(base + ".xml", doc.expected[i]);
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

ExecResult RunOp(const Config& cfg, const OfflineOp& op, bool* corrupt,
                 Record* rec) {
  ExecResult r = Exec(op.argv, cfg.work_dir + "/smpx.stderr.log");
  bool ok = r.exit_code == 0;
  for (const auto& [path, want] : op.outputs) {
    if (*corrupt) CorruptFile(path);
    *corrupt = false;
    ok = FileMatches(path, want) && ok;
  }
  rec->Count(ok);
  return r;
}

void RunOffline(const Config& cfg, const Inputs& in, Record* rec) {
  const std::vector<OfflineOp> ops = OfflineOps(cfg, in);
  bool corrupt = cfg.corrupt;
  auto run = [&](const OfflineOp& op) {
    return RunOp(cfg, op, &corrupt, rec);
  };

  // Set-up: the sequence's first operation, run repeatedly before timing
  // starts. The first of these execs is the cold one; the median keeps the
  // figure steady while still moving if work shifts into start-up.
  std::vector<double> setup;
  const auto setup_start = Clock::now();
  while (setup.size() < kSetupExecs ||
         (!cfg.smoke && Seconds(setup_start, Clock::now()) < kSetupSeconds)) {
    setup.push_back(run(ops[0]).wall_s);
  }

  // Whole rounds of the fixed sequence, so every run has the same mix.
  double round_mib = 0;
  for (const OfflineOp& op : ops) {
    round_mib += static_cast<double>(op.input_bytes) / kMiB;
  }
  std::vector<double> op_ms, round_mbps, round_cpu, round_pct;
  double peak_rss = 0;
  int rounds = 0;
  const auto start = Clock::now();
  do {
    double wall = 0, cpu = 0;
    for (const OfflineOp& op : ops) {
      ExecResult r = run(op);
      op_ms.push_back(r.wall_s * 1e3);
      wall += r.wall_s;
      cpu += r.cpu_s;
      peak_rss = std::max(peak_rss, r.maxrss_mib);
    }
    round_mbps.push_back(round_mib / wall);
    round_cpu.push_back(cpu * 1e3 / round_mib);
    round_pct.push_back(100.0 * cpu / wall);
    ++rounds;
  } while (Seconds(start, Clock::now()) < cfg.seconds);

  rec->Add("setup_s", Median(setup), "s", "lower");
  rec->Add("throughput_mbps", Median(round_mbps), "MiB/s", "higher");
  rec->Add("cpu_ms_per_mb", Median(round_cpu), "ms/MiB", "lower");
  rec->Add("peak_rss_mb", peak_rss, "MiB", "lower");
  rec->Add("latency_p50_ms", Quantile(op_ms, 0.50), "ms", "lower");
  rec->Add("latency_p90_ms", Quantile(op_ms, 0.90), "ms", "lower");
  rec->Add("latency_p99_ms", Quantile(op_ms, 0.99), "ms", "lower");
  rec->Add("cpu_pct", Median(round_pct), "%", "lower");
  rec->ProvNum("ops_per_round", static_cast<double>(ops.size()));
  rec->ProvNum("rounds", rounds);
  rec->ProvNum("setup_execs", static_cast<double>(setup.size()));
  rec->ProvNum("latency_samples", static_cast<double>(op_ms.size()));
}

}  // namespace perfbench
