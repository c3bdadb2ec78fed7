// Serving workload: one spawned smpxd over a MEDLINE document, loaded open
// loop over its unix socket. Latency is timed from each request's due
// time, so a stall also charges the requests queued behind it.

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "perfbench.h"
#include "server/client.h"

namespace perfbench {

namespace {

constexpr int kSetupSpawns = 3;
constexpr int kPhases = 5;
constexpr int kBulkRequests = 10;
constexpr double kMiB = 1 << 20;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return Seconds(a, b) * 1e3;
}

// One connection's share of the open-loop schedule: request i is due at
// t0 + offset + i / rate.
struct Stream {
  double rate = 1;
  double offset_s = 0;
  bool project = false;
  bool corrupt = false;  ///< damage this stream's first cursor response
  uint64_t seed = 1;
  LoadResult out;
};

void RunStream(const std::string& endpoint, const smpx::server::Request& base,
               const std::string& projection, const LoadPlan& plan,
               Clock::time_point t0, Stream* st) {
  using smpx::server::Op;
  // The cursor connections keep to the last CPU and leave the others to
  // smpxd, so the generator's threads do not compete with the daemon's.
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus > 1 && !st->project) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(cpus - 1), &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
  const uint64_t n =
      std::max<uint64_t>(1, static_cast<uint64_t>(plan.seconds * st->rate));
  auto client = smpx::server::Client::Connect(endpoint);
  uint64_t rng = st->seed;
  std::string token;
  bool corrupt = st->corrupt;
  for (uint64_t i = 0; i < n; ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(st->offset_s +
                                               static_cast<double>(i) /
                                                   st->rate));
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    st->out.late_ms.push_back(Ms(due, sent));
    ++st->out.attempted;
    if (!client.ok()) client = smpx::server::Client::Connect(endpoint);
    if (!client.ok()) {
      ++st->out.failed;
      continue;
    }
    smpx::server::Request req = base;
    if (st->project) {
      req.op = Op::kProject;
    } else if (i % 2 == 1 && !token.empty()) {
      req.op = Op::kResume;
      req.token = token;
      req.count = 1;
    } else {
      req.op = Op::kSeek;
      req.by_record = true;
      req.target = SplitMix(&rng) % plan.records;
      req.count = 1;
    }
    smpx::StringSink sink;
    ComparingSink whole(projection);
    auto t = client->Call(req, st->project
                                   ? static_cast<smpx::OutputSink*>(&whole)
                                   : &sink);
    const auto done = Clock::now();
    token.clear();
    if (!t.ok()) {
      ++st->out.failed;
      if (client->last_error_retryable()) {
        ++st->out.rejections;
      } else {
        client = smpx::server::Client::Connect(endpoint);
      }
      continue;
    }
    if (st->project) {
      st->out.bytes += whole.bytes_written();
      if (whole.matches()) {
        st->out.project_ms.push_back(Ms(due, done));
      } else {
        ++st->out.failed;
      }
      continue;
    }
    std::string got = sink.TakeString();
    st->out.bytes += got.size();
    if (corrupt && !got.empty()) {
      got[0] ^= 0x20;
      corrupt = false;
    }
    if (!CursorMatches(projection, *t, got)) {
      ++st->out.failed;
      continue;
    }
    if (!t->at_end) token = t->token;
    st->out.cursor_ms.push_back(Ms(due, done));
  }
}

void Append(std::vector<double>* dst, const std::vector<double>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

}  // namespace

bool CursorMatches(const std::string& projection,
                   const smpx::server::Trailer& t, std::string_view got) {
  return t.emitted_bytes == got.size() && t.out_position >= got.size() &&
         t.out_position <= projection.size() &&
         projection.compare(t.out_position - got.size(), got.size(), got) ==
             0;
}

smpx::server::Request BaseRequest(const Inputs& in, const char* paths) {
  smpx::server::Request req;
  req.dtd_text = in.dtd_text;
  req.paths_text = paths;
  req.doc_path = in.docs[0].path;
  return req;
}

LoadResult RunOpenLoop(const std::string& endpoint,
                       const smpx::server::Request& base,
                       const std::string& projection, const LoadPlan& plan) {
  std::vector<Stream> streams(3);
  // Two cursor connections interleaved half a period apart, and one bulk
  // connection; all three schedules start together.
  for (int c = 0; c < 2; ++c) {
    streams[c].rate = plan.cursor_rate / 2;
    streams[c].offset_s = c / plan.cursor_rate;
    streams[c].seed = plan.seed * 1000003 + static_cast<uint64_t>(c);
  }
  streams[0].corrupt = plan.corrupt;
  streams[2].rate = plan.project_rate;
  streams[2].offset_s = 0.5 / plan.project_rate;
  streams[2].project = true;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (Stream& s : streams) {
    threads.emplace_back(RunStream, std::cref(endpoint), std::cref(base),
                         std::cref(projection), std::cref(plan), t0, &s);
  }
  for (auto& t : threads) t.join();
  LoadResult all;
  all.wall_s = Seconds(t0, Clock::now());
  for (const Stream& s : streams) {
    Append(&all.cursor_ms, s.out.cursor_ms);
    Append(&all.project_ms, s.out.project_ms);
    Append(&all.late_ms, s.out.late_ms);
    all.attempted += s.out.attempted;
    all.failed += s.out.failed;
    all.rejections += s.out.rejections;
    all.bytes += s.out.bytes;
  }
  return all;
}

bool CountRecords(const std::string& endpoint,
                  const smpx::server::Request& base, uint64_t doc_size,
                  uint64_t* records) {
  auto c = smpx::server::Client::Connect(endpoint);
  if (!c.ok()) return false;
  smpx::server::Request probe = base;
  probe.op = smpx::server::Op::kSeek;
  probe.target = doc_size;  // lands on the last indexed record
  auto t = c->Call(probe, nullptr);
  if (!t.ok()) return false;
  *records = std::max<uint64_t>(1, t->record_position);
  return true;
}

void RunServe(const Config& cfg, const Inputs& in, Record* rec) {
  const std::string smpxd = cfg.bin_dir + "/smpxd";
  const std::string log = cfg.work_dir + "/smpxd.stderr.log";
  const std::string socket = cfg.work_dir + "/serve.sock";
  const smpx::server::Request base = BaseRequest(in, ServeQuery().paths);
  std::string projection, err;
  if (!Project(in.dtd_text, ServeQuery().paths, in.docs[0].text, &projection,
               &err)) {
    rec->Note("error", err);
    rec->Count(false);
    return;
  }

  // Set-up: spawn to first served request, which compiles the tables and
  // builds the granularity-1 index. The last daemon serves the load.
  Daemon daemon;
  std::vector<double> setup;
  for (int k = 0; k < kSetupSpawns; ++k) {
    const auto t0 = Clock::now();
    bool ok = daemon.Start(smpxd, socket, log, &err);
    if (ok) {
      auto c = smpx::server::Client::Connect(daemon.endpoint());
      smpx::server::Request first = base;
      first.op = smpx::server::Op::kSeek;
      first.by_record = true;
      first.count = 1;
      smpx::StringSink sink;
      ok = c.ok();
      if (ok) {
        auto t = c->Call(first, &sink);
        ok = t.ok() && CursorMatches(projection, *t, sink.str());
      }
    }
    setup.push_back(Seconds(t0, Clock::now()));
    if (!rec->Count(ok)) {
      rec->Note("error", err.empty() ? "set-up request failed" : err);
      return;
    }
  }
  uint64_t records = 0;
  if (!rec->Count(CountRecords(daemon.endpoint(), base, in.total_bytes(), &records))) return;

  // The load runs as back-to-back phases, each on fresh connections (so
  // fresh connection threads on both sides). Cursor p50 and CPU are the
  // median over phases, which keeps one badly scheduled phase from
  // setting them; tails are taken over every sample.
  LoadPlan plan;
  plan.cursor_rate = cfg.smoke ? 400 : 4000;
  plan.project_rate = 2;
  plan.seconds = cfg.seconds / kPhases;
  plan.records = records;
  LoadResult all;
  std::vector<double> p50, cpu_per_mib, cpu_pct, sys;
  for (int k = 0; k < kPhases; ++k) {
    plan.seed = cfg.seed * kPhases + static_cast<uint64_t>(k);
    plan.corrupt = cfg.corrupt && k == 0;
    double u0 = 0, s0 = 0, u1 = 0, s1 = 0;
    daemon.Cpu(&u0, &s0);
    LoadResult load = RunOpenLoop(daemon.endpoint(), base, projection, plan);
    daemon.Cpu(&u1, &s1);
    const double cpu_s = (u1 - u0) + (s1 - s0);
    p50.push_back(Quantile(load.cursor_ms, 0.50));
    cpu_per_mib.push_back(cpu_s * 1e3 /
                          (static_cast<double>(load.bytes) / kMiB));
    cpu_pct.push_back(100.0 * cpu_s / load.wall_s);
    sys.push_back(cpu_s > 0 ? 100.0 * (s1 - s0) / cpu_s : 0);
    all.attempted += load.attempted;
    all.failed += load.failed;
    all.rejections += load.rejections;
    Append(&all.late_ms, load.late_ms);
    Append(&all.cursor_ms, load.cursor_ms);
    Append(&all.project_ms, load.project_ms);
  }
  rec->attempted += all.attempted;
  rec->failed += all.failed;

  // Bulk throughput: whole-document projects sent back to back on an
  // otherwise idle daemon.
  std::vector<double> bulk_s;
  {
    auto c = smpx::server::Client::Connect(daemon.endpoint());
    smpx::server::Request project = base;
    project.op = smpx::server::Op::kProject;
    for (int i = 0; i < (cfg.smoke ? 2 : kBulkRequests) && c.ok(); ++i) {
      ComparingSink got(projection);
      const auto t0 = Clock::now();
      auto t = c->Call(project, &got);
      bulk_s.push_back(Seconds(t0, Clock::now()));
      rec->Count(t.ok() && got.matches());
    }
    rec->Count(c.ok());
  }

  rec->Add("setup_s", Median(setup), "s", "lower");
  rec->Add("throughput_mbps",
           static_cast<double>(in.total_bytes()) / kMiB / Median(bulk_s),
           "MiB/s", "higher");
  rec->Add("cpu_ms_per_mb", Median(cpu_per_mib), "ms/MiB", "lower");
  rec->Add("peak_rss_mb", daemon.PeakRssMib(), "MiB", "lower");
  rec->Add("latency_p50_ms", Median(p50), "ms", "lower");
  rec->Add("latency_p90_ms", Quantile(all.cursor_ms, 0.90), "ms", "lower");
  rec->Add("latency_p99_ms", Quantile(all.cursor_ms, 0.99), "ms", "lower");
  rec->Add("project_p50_ms", Quantile(all.project_ms, 0.50), "ms", "lower");
  rec->Add("server_cpu_pct", Median(cpu_pct), "%", "lower");
  rec->Add("server_sys_pct", Median(sys), "%", "lower");
  rec->Add("rejections", static_cast<double>(all.rejections), "count",
           "lower");
  rec->Add("loadgen_late_ms_p99", Quantile(all.late_ms, 0.99), "ms", "lower");
  rec->ProvNum("cursor_rate", plan.cursor_rate);
  rec->ProvNum("project_rate", plan.project_rate);
  rec->ProvNum("records", static_cast<double>(records));
  rec->ProvNum("load_phases", kPhases);
  rec->ProvNum("cursor_samples", static_cast<double>(all.cursor_ms.size()));
  rec->ProvNum("project_samples", static_cast<double>(all.project_ms.size()));
  rec->ProvNum("setup_spawns", kSetupSpawns);
}

}  // namespace perfbench
