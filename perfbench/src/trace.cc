// The traced run: the workload's inputs pushed through each layer's public
// library calls in process, with a span around every call and counters
// read where the work happens. Spans live in memory and are written out
// (one JSON object per line) when the run ends.
//
// Layers, named after the modules: core (tables + engine), strmatch,
// query, parallel, io (common/io sinks), index, server. Every workload
// reports every layer metric over its own document and query list.

#include <algorithm>
#include <fstream>
#include <optional>

#include "common/timer.h"
#include "core/prefilter.h"
#include "dtd/dtd.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "paths/projection_path.h"
#include "perfbench.h"
#include "query/multiquery.h"
#include "server/client.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1 << 20;

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent;
    double start_ms;
    double end_ms;
  };

  int Begin(const std::string& name) {
    spans_.push_back({name, current_, Now(), 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int id) {
    spans_[id].end_ms = Now();
    current_ = spans_[id].parent;
  }
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> d;
    for (const Span& s : spans_) {
      if (s.name == name) d.push_back(s.end_ms - s.start_ms);
    }
    return d;
  }
  double Total(const std::string& name) const {
    double t = 0;
    for (double d : Durations(name)) t += d;
    return t;
  }
  void Write(const std::string& path) const {
    std::ofstream f(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "{\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"name\": " << JsonString(s.name)
        << ", \"start_ms\": " << JsonNumber(s.start_ms)
        << ", \"end_ms\": " << JsonNumber(s.end_ms) << "}\n";
    }
  }

 private:
  double Now() const { return Seconds(t0_, Clock::now()) * 1e3; }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// A span for the enclosing scope; a null tracer records nothing (the
/// untraced passes that measure tracing's own overhead).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name)
      : t_(t), id_(t != nullptr ? t->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Cost of one steady-clock reading pair, subtracted from sampled timings.
double ClockPairSeconds() {
  static const double cost = [] {
    std::vector<double> d;
    for (int i = 0; i < 1001; ++i) {
      const auto a = Clock::now();
      d.push_back(Seconds(a, Clock::now()));
    }
    return Median(d);
  }();
  return cost;
}

/// The io layer's probe: forwards to the real sink, counts every Append,
/// and times one Append in kSampleEvery (the engine appends a few dozen
/// bytes at a time, so timing each call would mostly measure the clock).
class TracingSink : public smpx::OutputSink {
 public:
  static constexpr uint64_t kSampleEvery = 16;

  explicit TracingSink(smpx::OutputSink* inner) : inner_(inner) {}
  smpx::Status Append(std::string_view data) override {
    if (!first_) first_ = Clock::now();
    smpx::Status s;
    if (appends++ % kSampleEvery == 0) {
      const auto t0 = Clock::now();
      s = inner_->Append(data);
      sampled_s_ +=
          std::max(0.0, Seconds(t0, Clock::now()) - ClockPairSeconds());
    } else {
      s = inner_->Append(data);
    }
    bytes_written_ += data.size();
    return s;
  }
  std::optional<Clock::time_point> first() const { return first_; }
  /// Estimated time spent inside the wrapped sink's Append.
  double busy_s() const {
    const uint64_t sampled = (appends + kSampleEvery - 1) / kSampleEvery;
    return sampled == 0 ? 0
                        : sampled_s_ * static_cast<double>(appends) /
                              static_cast<double>(sampled);
  }

  uint64_t appends = 0;

 private:
  smpx::OutputSink* inner_;
  std::optional<Clock::time_point> first_;
  double sampled_s_ = 0;
};

bool CompileOne(const std::string& dtd_text, const char* paths,
                std::optional<smpx::core::Prefilter>* out) {
  auto dtd = smpx::dtd::Dtd::Parse(dtd_text);
  if (!dtd.ok()) return false;
  auto parsed = smpx::paths::ProjectionPath::ParseList(paths);
  if (!parsed.ok()) return false;
  auto pf = smpx::core::Prefilter::Compile(std::move(*dtd), *parsed);
  if (!pf.ok()) return false;
  out->emplace(std::move(*pf));
  return true;
}

/// Totals of one pass of the serial engine over every query.
struct CorePass {
  double wall_s = 0;
  smpx::core::RunStats stats;
  double sink_s = 0;
  uint64_t appends = 0;
  uint64_t sink_bytes = 0;
};

/// Compiles and runs every query serially, as the CLI does per exec, and
/// checks each output. With a tracer, spans and the TracingSink are on.
CorePass RunCorePass(const Config& cfg, const Inputs& in, Tracer* tr,
                     Record* rec, std::vector<smpx::core::Prefilter>* keep) {
  CorePass pass;
  const std::string out = cfg.work_dir + "/trace.out.xml";
  const auto t0 = Clock::now();
  for (size_t d = 0; d < in.docs.size(); ++d) {
    for (size_t q = 0; q < in.queries.size(); ++q) {
      std::optional<smpx::core::Prefilter> pf;
      bool ok;
      {
        ScopedSpan s(tr, "core.compile");
        ok = CompileOne(in.dtd_text, in.queries[q].paths, &pf);
      }
      if (!rec->Count(ok)) continue;
      auto file = smpx::BufferedFileSink::Open(out);
      if (!rec->Count(file.ok())) continue;
      TracingSink probe(file->get());
      smpx::OutputSink* sink =
          tr != nullptr ? static_cast<smpx::OutputSink*>(&probe) : file->get();
      smpx::core::RunStats st;
      smpx::Status s;
      {
        ScopedSpan span(tr, "core.run");
        smpx::MemoryInputStream input(in.docs[d].text);
        s = pf->Run(&input, sink, &st);
      }
      const auto f0 = Clock::now();
      if (s.ok()) s = (*file)->Flush();
      pass.sink_s += probe.busy_s() + Seconds(f0, Clock::now());
      pass.appends += probe.appends;
      pass.sink_bytes += probe.bytes_written();
      smpx::parallel::MergeRunStats(&pass.stats, st);
      rec->Count(s.ok() && FileMatches(out, in.docs[d].expected[q]));
      if (keep != nullptr && d == 0) keep->push_back(std::move(*pf));
    }
  }
  pass.wall_s = Seconds(t0, Clock::now());
  return pass;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

}  // namespace

void RunTrace(const Config& cfg, const Inputs& in, Record* rec) {
  Tracer tr;
  const double doc_mib = static_cast<double>(in.total_bytes()) / kMiB;
  const double nq = static_cast<double>(in.queries.size());
  auto add = [rec](const std::string& name, double v, const char* unit,
                   const char* better, bool det = false) {
    rec->Add(name, v, unit, better, det);
  };

  // The end-to-end reference: one untraced round of the workload's execs
  // (the serving workload's reference is its cursor latency, below).
  double exec_round_ms = 0;
  if (in.kind != Kind::kMedlineServe) {
    bool corrupt = false;
    for (const OfflineOp& op : OfflineOps(cfg, in)) {
      exec_round_ms += RunOp(cfg, op, &corrupt, rec).wall_s * 1e3;
    }
  }

  // ---- core, strmatch, io: the serial engine, one compile + run per query.
  std::vector<smpx::core::Prefilter> pfs;
  CorePass core = RunCorePass(cfg, in, &tr, rec, &pfs);
  if (pfs.size() != in.queries.size()) {
    rec->Note("error", "a query failed to compile");
    return;
  }
  // Tracing overhead: the same calls with spans and probe off vs on,
  // alternated so drift hits both sides alike.
  double plain_s = 0, traced_s = core.wall_s;
  {
    Tracer scratch;
    plain_s += RunCorePass(cfg, in, nullptr, rec, nullptr).wall_s;
    traced_s += RunCorePass(cfg, in, &scratch, rec, nullptr).wall_s;
    plain_s += RunCorePass(cfg, in, nullptr, rec, nullptr).wall_s;
  }
  const smpx::core::RunStats& st = core.stats;
  const double core_compile_ms = tr.Total("core.compile");
  const double core_run_ms = tr.Total("core.run");
  add("core.compile_ms", core_compile_ms, "ms", "lower");
  add("core.run_ms", core_run_ms, "ms", "lower");
  add("core.run_mbps", doc_mib * nq / (core_run_ms / 1e3), "MiB/s", "higher");
  add("core.char_comp_pct", st.CharCompPct(), "%", "lower", true);
  add("core.scan_chars", static_cast<double>(st.scan_chars), "count", "lower",
      true);
  add("core.initial_jump_pct", st.InitialJumpPct(), "%", "higher", true);
  add("core.match_precision",
      Ratio(static_cast<double>(st.matches),
            static_cast<double>(st.matches + st.false_matches)),
      "ratio", "higher", true);
  add("core.output_bytes", static_cast<double>(st.output_bytes), "bytes",
      "lower", true);
  add("core.window_peak", static_cast<double>(st.window_peak), "bytes",
      "lower", true);
  add("strmatch.comparisons", static_cast<double>(st.search.comparisons),
      "count", "lower", true);
  add("strmatch.avg_shift", st.AvgShift(), "chars", "higher", true);
  add("strmatch.bm_searches", static_cast<double>(st.bm_searches), "count",
      "lower", true);
  add("strmatch.cw_searches", static_cast<double>(st.cw_searches), "count",
      "lower", true);
  add("io.sink_ms", core.sink_s * 1e3, "ms", "lower");
  add("io.appends", static_cast<double>(core.appends), "count", "lower",
      true);
  add("io.bytes_per_append",
      Ratio(static_cast<double>(core.sink_bytes),
            static_cast<double>(core.appends)),
      "bytes", "higher", true);
  add("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s, "%",
      "lower");

  // ---- query: every query of the workload as one multi-query pass.
  double query_compile_ms = 0, query_run_ms = 0;
  {
    std::optional<smpx::query::MultiQuery> mq;
    {
      ScopedSpan s(&tr, "query.compile");
      auto dtd = smpx::dtd::Dtd::Parse(in.dtd_text);
      std::vector<std::vector<smpx::paths::ProjectionPath>> lists;
      bool ok = dtd.ok();
      for (const Query& q : in.queries) {
        auto p = smpx::paths::ProjectionPath::ParseList(q.paths);
        ok = ok && p.ok();
        if (p.ok()) lists.push_back(*p);
      }
      if (ok) {
        auto r = smpx::query::MultiQuery::Compile(std::move(*dtd), lists);
        if (r.ok()) mq.emplace(std::move(*r));
      }
    }
    if (rec->Count(mq.has_value())) {
      for (const Doc& doc : in.docs) {
        std::vector<std::unique_ptr<smpx::BufferedFileSink>> files;
        std::vector<smpx::OutputSink*> sinks;
        std::vector<std::string> names;
        for (size_t q = 0; q < in.queries.size(); ++q) {
          names.push_back(cfg.work_dir + "/trace.q" + std::to_string(q + 1) +
                          ".xml");
          auto f = smpx::BufferedFileSink::Open(names.back());
          if (!f.ok()) break;
          sinks.push_back(f->get());
          files.push_back(std::move(*f));
        }
        smpx::Status s = smpx::Status::Ok();
        if (files.size() != in.queries.size()) {
          s = smpx::Status::IoError("cannot open trace outputs");
        } else {
          ScopedSpan span(&tr, "query.run");
          s = mq->RunOnBuffer(doc.text, sinks);
        }
        for (auto& f : files) {
          if (s.ok()) s = f->Flush();
        }
        for (size_t q = 0; q < names.size(); ++q) {
          rec->Count(s.ok() && FileMatches(names[q], doc.expected[q]));
        }
      }
      add("query.product_states",
          static_cast<double>(mq->tables().states.size()), "count", "lower",
          true);
      add("query.unique_queries", mq->num_unique(), "count", "lower", true);
    }
    query_compile_ms = tr.Total("query.compile");
    query_run_ms = tr.Total("query.run");
    add("query.compile_ms", query_compile_ms, "ms", "lower");
    add("query.run_ms", query_run_ms, "ms", "lower");
    add("query.one_pass_gain", Ratio(core_run_ms, query_run_ms), "x",
        "higher");
  }

  // ---- parallel: ShardedRun over every query, as --threads runs.
  smpx::parallel::ThreadPool pool(cfg.threads);
  {
    uint64_t scanned = 0;
    for (const Doc& doc : in.docs) {
      uint64_t n = 0;
      ScopedSpan s(&tr, "parallel.boundary_scan");
      smpx::parallel::FindTopLevelBoundariesParallel(
          doc.text, static_cast<size_t>(std::max(1, cfg.threads - 1)), &pool,
          &n);
      scanned += n;
    }
    const std::string out = cfg.work_dir + "/trace.sharded.xml";
    smpx::parallel::ShardReport sum;
    std::vector<double> first_ms;
    smpx::CpuTimer cpu;
    for (size_t i = 0; i < in.docs.size() * pfs.size(); ++i) {
      const Doc& doc = in.docs[i / pfs.size()];
      const size_t q = i % pfs.size();
      auto file = smpx::BufferedFileSink::Open(out);
      if (!rec->Count(file.ok())) continue;
      TracingSink probe(file->get());
      smpx::parallel::ShardOptions opts;
      opts.max_buffer_bytes = 64 << 20;  // the CLI's --max-buffer default
      smpx::parallel::ShardReport rep;
      smpx::Status s;
      const auto entered = Clock::now();
      {
        ScopedSpan span(&tr, "parallel.sharded_run");
        s = smpx::parallel::ShardedRun(pfs[q].tables(), doc.text, &probe,
                                       nullptr, &pool, opts, &rep);
      }
      if (probe.first()) first_ms.push_back(Seconds(entered, *probe.first()) * 1e3);
      if (s.ok()) s = (*file)->Flush();
      rec->Count(s.ok() && FileMatches(out, doc.expected[q]));
      sum.shards += rep.shards;
      sum.speculated += rep.speculated;
      sum.accepted += rep.accepted;
      sum.reruns += rep.reruns;
      sum.serial_bytes += rep.serial_bytes;
      sum.wave_bytes += rep.wave_bytes;
      sum.killed += rep.killed;
      sum.stolen += rep.stolen;
    }
    const double cpu_s = cpu.Seconds();
    const double sharded_ms = tr.Total("parallel.sharded_run");
    const double total_mib = doc_mib * nq;
    add("parallel.boundary_scan_ms", tr.Total("parallel.boundary_scan"), "ms",
        "lower");
    add("parallel.scanned_bytes", static_cast<double>(scanned), "bytes",
        "lower", true);
    add("parallel.sharded_run_ms", sharded_ms, "ms", "lower");
    add("parallel.serial_run_ms", core_run_ms, "ms", "lower");
    add("parallel.speedup_vs_serial", Ratio(core_run_ms, sharded_ms), "x",
        "higher");
    add("parallel.cpu_ms_per_mb", cpu_s * 1e3 / total_mib, "ms/MiB", "lower");
    add("parallel.first_output_ms", Median(first_ms), "ms", "lower");
    add("parallel.shards",
        Ratio(static_cast<double>(sum.shards),
              nq * static_cast<double>(in.docs.size())),
        "count", "higher", true);
    add("parallel.accept_ratio",
        Ratio(static_cast<double>(sum.accepted),
              static_cast<double>(sum.speculated)),
        "ratio", "higher", true);
    add("parallel.reruns", static_cast<double>(sum.reruns), "count", "lower",
        true);
    add("parallel.serial_bytes_frac",
        static_cast<double>(sum.serial_bytes) /
            (static_cast<double>(in.total_bytes()) * nq),
        "ratio", "lower", true);
    add("parallel.wave_bytes_ratio",
        static_cast<double>(sum.wave_bytes) /
            (static_cast<double>(in.total_bytes()) * nq),
        "ratio", "lower");
    add("parallel.killed", static_cast<double>(sum.killed), "count", "lower");
    add("parallel.stolen", static_cast<double>(sum.stolen), "count", "lower");
    rec->Note("parallel.serial_run_ms",
              "the serial engine's run time over the same queries, i.e. "
              "core.run_ms");
  }

  // ---- index and server: measured on the serving workload's document and
  // query in every traced run (generated from the same seed), because a
  // granularity-1 index is what smpxd builds and serves from.
  Inputs serve_storage;
  const Inputs* sv = &in;
  if (in.kind != Kind::kMedlineServe) {
    std::string err;
    if (!rec->Count(MakeInputs(cfg, Kind::kMedlineServe, &serve_storage,
                               &err))) {
      rec->Note("error", err);
      return;
    }
    sv = &serve_storage;
  }
  const std::string_view sv_doc = sv->docs[0].text;
  const double sv_mib = static_cast<double>(sv_doc.size()) / kMiB;
  std::optional<smpx::core::Prefilter> ipf;
  std::string projection;
  {
    if (!rec->Count(CompileOne(sv->dtd_text, ServeQuery().paths, &ipf))) {
      return;
    }
    auto r = ipf->RunOnBuffer(sv_doc);
    if (!rec->Count(r.ok())) return;
    projection = std::move(*r);
  }
  double open_us = 0, next_us = 0;
  {
    smpx::index::BoundaryIndexOptions o;
    o.granularity_bytes = 1;
    std::optional<smpx::index::BoundaryIndex> idx;
    {
      ScopedSpan s(&tr, "index.build");
      auto r =
          smpx::index::BoundaryIndex::Build(ipf->tables(), sv_doc, &pool, o);
      if (r.ok()) idx.emplace(std::move(*r));
    }
    if (!rec->Count(idx.has_value() && !idx->entries().empty() &&
                    idx->Matches(sv_doc, ipf->tables()).ok())) {
      return;
    }
    smpx::CountingSink saved;
    rec->Count(idx->Save(&saved).ok());
    const double build_ms = tr.Total("index.build");
    add("index.build_ms", build_ms, "ms", "lower");
    add("index.build_mbps", sv_mib / (build_ms / 1e3), "MiB/s", "higher");
    add("index.entries", static_cast<double>(idx->entries().size()), "count",
        "lower", true);
    add("index.bytes", static_cast<double>(saved.bytes_written()), "bytes",
        "lower", true);

    smpx::index::CursorOptions co;
    co.verify_document = false;  // checked once above, as smpxd does
    const uint64_t records = idx->entries().back().record_ordinal + 1;
    const int samples = cfg.smoke ? 50 : 2000;
    uint64_t rng = cfg.seed;
    std::vector<double> token_bytes;
    for (int i = 0; i < samples; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const uint64_t target = (rng >> 17) % records;
      std::optional<smpx::index::Cursor> cur;
      {
        ScopedSpan s(&tr, "index.open");
        auto c = smpx::index::Cursor::OpenAtRecord(*idx, ipf->tables(), sv_doc,
                                                   target, co);
        if (c.ok()) cur.emplace(std::move(*c));
      }
      if (!rec->Count(cur.has_value())) continue;
      const uint64_t from = cur->output_position();
      smpx::StringSink got;
      bool ok;
      {
        ScopedSpan s(&tr, "index.next");
        ok = cur->Next(1, &got).ok();
      }
      ok = ok && from + got.str().size() <= projection.size() &&
           projection.compare(from, got.str().size(), got.str()) == 0;
      const std::string token = cur->SaveToken();
      token_bytes.push_back(static_cast<double>(token.size()));
      {
        ScopedSpan s(&tr, "index.restore");
        auto back = smpx::index::Cursor::Restore(*idx, ipf->tables(), sv_doc,
                                                 token, co);
        ok = ok && back.ok() &&
             back->output_position() == cur->output_position();
      }
      rec->Count(ok);
    }
    open_us = Median(tr.Durations("index.open")) * 1e3;
    next_us = Median(tr.Durations("index.next")) * 1e3;
    add("index.open_us", open_us, "us", "lower");
    add("index.next_us", next_us, "us", "lower");
    add("index.restore_us", Median(tr.Durations("index.restore")) * 1e3, "us",
        "lower");
    add("index.token_bytes", Median(token_bytes), "bytes", "lower", true);
  }

  // ---- server: a spawned smpxd over the same document and query, called
  // closed loop through server::Client, then a short open-loop burst.
  double burst_cursor_p50_ms = 0;
  {
    Daemon daemon;
    std::string err;
    const smpx::server::Request base = BaseRequest(*sv, ServeQuery().paths);
    bool up = daemon.Start(cfg.bin_dir + "/smpxd",
                           cfg.work_dir + "/trace.sock",
                           cfg.work_dir + "/smpxd.stderr.log", &err);
    if (!rec->Count(up)) {
      rec->Note("error", err);
      return;
    }
    double u0 = 0, s0 = 0, u1 = 0, s1 = 0;
    daemon.Cpu(&u0, &s0);
    auto client = smpx::server::Client::Connect(daemon.endpoint());
    if (!rec->Count(client.ok())) return;
    uint64_t rejections = 0;
    auto call = [&](const char* span, const smpx::server::Request& req,
                    smpx::OutputSink* sink) {
      smpx::Result<smpx::server::Trailer> t = smpx::Status::Internal("unsent");
      {
        ScopedSpan s(&tr, span);
        t = client->Call(req, sink);
      }
      if (!t.ok() && client->last_error_retryable()) ++rejections;
      return t;
    };
    auto cursor_ok = [&](const smpx::Result<smpx::server::Trailer>& t,
                         const smpx::StringSink& got) {
      return t.ok() && CursorMatches(projection, *t, got.str());
    };
    smpx::server::Request seek = base;
    seek.op = smpx::server::Op::kSeek;
    seek.by_record = true;
    seek.count = 1;
    {
      smpx::StringSink got;
      auto t = call("server.cold_request", seek, &got);
      rec->Count(cursor_ok(t, got));
    }
    uint64_t records = 1;
    rec->Count(CountRecords(daemon.endpoint(), base, sv_doc.size(), &records));
    uint64_t rng = cfg.seed ^ 0x5bd1e995;
    const int samples = cfg.smoke ? 50 : 1000;
    for (int i = 0; i < samples; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      seek.target = (rng >> 17) % records;
      smpx::StringSink got;
      auto t = call("server.seek", seek, &got);
      if (!rec->Count(cursor_ok(t, got)) || t->at_end) continue;
      smpx::server::Request resume = base;
      resume.op = smpx::server::Op::kResume;
      resume.token = t->token;
      resume.count = 1;
      smpx::StringSink more;
      rec->Count(cursor_ok(call("server.resume", resume, &more), more));
    }
    smpx::server::Request project = base;
    project.op = smpx::server::Op::kProject;
    for (int i = 0; i < (cfg.smoke ? 2 : 5); ++i) {
      ComparingSink got(projection);
      rec->Count(call("server.project", project, &got).ok() && got.matches());
    }
    daemon.Cpu(&u1, &s1);

    LoadPlan plan;
    plan.cursor_rate = cfg.smoke ? 400 : 4000;
    plan.project_rate = 2;
    plan.seconds = cfg.smoke ? 0.5 : 2;
    plan.seed = cfg.seed;
    plan.records = records;
    LoadResult load = RunOpenLoop(daemon.endpoint(), base, projection, plan);
    rec->attempted += load.attempted;
    rec->failed += load.failed;
    burst_cursor_p50_ms = Quantile(load.cursor_ms, 0.5);

    const double seek_p50_us = Quantile(tr.Durations("server.seek"), 0.5) * 1e3;
    add("server.seek_p50_us", seek_p50_us, "us", "lower");
    add("server.seek_p99_us", Quantile(tr.Durations("server.seek"), 0.99) * 1e3,
        "us", "lower");
    add("server.resume_p50_us",
        Quantile(tr.Durations("server.resume"), 0.5) * 1e3, "us", "lower");
    add("server.resume_p99_us",
        Quantile(tr.Durations("server.resume"), 0.99) * 1e3, "us", "lower");
    add("server.project_p50_ms", Quantile(tr.Durations("server.project"), 0.5),
        "ms", "lower");
    add("server.project_p99_ms",
        Quantile(tr.Durations("server.project"), 0.99), "ms", "lower");
    add("server.overhead_us", seek_p50_us - (open_us + next_us), "us",
        "lower");
    add("server.cold_request_ms", tr.Total("server.cold_request"), "ms",
        "lower");
    const double cpu_s = (u1 - u0) + (s1 - s0);
    add("server.sys_pct", cpu_s > 0 ? 100.0 * (s1 - s0) / cpu_s : 0, "%",
        "lower");
    add("server.rejections", static_cast<double>(rejections + load.rejections),
        "count", "lower");
    add("loadgen.late_ms_p99", Quantile(load.late_ms, 0.99), "ms", "lower");
    add("loadgen.late_ms_max", Quantile(load.late_ms, 1.0), "ms", "lower");
    rec->Note("server.overhead_us",
              "server.seek_p50_us minus index.open_us and index.next_us: the "
              "protocol, socket, cache, and dispatch share");
  }

  // ---- the share of the end-to-end operation time no layer span covers
  // (process start, page-in, output writing outside the engine, protocol).
  double e2e_ms = 0, covered_ms = 0;
  switch (in.kind) {
    case Kind::kXmarkSerial:
      e2e_ms = exec_round_ms;
      covered_ms = core_compile_ms + core_run_ms;
      break;
    case Kind::kXmarkMulti:
      e2e_ms = exec_round_ms;
      covered_ms = query_compile_ms + query_run_ms;
      break;
    case Kind::kMedlineSharded:
      e2e_ms = exec_round_ms;
      covered_ms = core_compile_ms + tr.Total("parallel.sharded_run");
      break;
    case Kind::kMedlineServe:
      e2e_ms = burst_cursor_p50_ms;
      covered_ms = (open_us + next_us) / 1e3;
      break;
  }
  add("trace.unaccounted_pct", 100.0 * Ratio(e2e_ms - covered_ms, e2e_ms), "%",
      "lower");
  rec->ProvNum("trace_e2e_ms", e2e_ms);
  tr.Write(cfg.work_dir + "/" + in.name + ".spans.jsonl");
}

}  // namespace perfbench
