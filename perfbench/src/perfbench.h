// perfbench: the end-to-end benchmark of smpx and smpxd.
//
// The harness generates seeded inputs, computes reference outputs with the
// in-process serial engine (the oracle), then either drives the shipped
// programs the way users do (`--trace 0`: smpx exec'd once per operation,
// smpxd spawned once and loaded over its unix socket) or calls each
// layer's library functions in process with spans around every call
// (`--trace 1`). Either way it prints one JSON record as its last line.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "server/protocol.h"

namespace perfbench {

// ---------------------------------------------------------------- results

/// One measured value. `better` is "higher" or "lower"; `deterministic`
/// marks counters that must repeat exactly for the same commit and seed.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;
  bool deterministic = false;
};

/// Everything one run reports: the metrics plus the operation counts and
/// the provenance fields that make two records comparable.
struct Record {
  std::vector<Metric> metrics;
  /// Extra named values kept in the record but not declared as metrics
  /// (derived ratios, notes on what could not be measured).
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::pair<std::string, std::string>> provenance;  // JSON values
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& better, bool deterministic = false) {
    metrics.push_back({name, value, unit, better, deterministic});
  }
  void Note(const std::string& key, const std::string& text);
  void Prov(const std::string& key, const std::string& json_value);
  void ProvNum(const std::string& key, double v);
  void ProvStr(const std::string& key, const std::string& s);
  /// Counts one checked operation; returns `ok` for chaining.
  bool Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  std::string ToJson() const;
};

std::string JsonString(std::string_view s);
std::string JsonNumber(double v);

// ------------------------------------------------------------ statistics

/// Quantile with linear interpolation between order statistics (the
/// "inclusive" method); `q` in [0, 1]. Empty input yields 0.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Fast 64-bit content hash for output checks. Every step is a bijection
/// of the running state for a fixed word, so two inputs of equal length
/// that differ in one 8-byte word always hash differently.
uint64_t Hash64(std::string_view data);

/// Expected output of one operation: its size and content hash.
struct Expected {
  uint64_t size = 0;
  uint64_t hash = 0;
  static Expected Of(std::string_view s) { return {s.size(), Hash64(s)}; }
};

using Clock = std::chrono::steady_clock;
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// -------------------------------------------------------------- processes

/// Result of one exec'd child, as the parent sees it through wait4.
struct ExecResult {
  int exit_code = -1;     ///< -1 when killed by a signal or not started
  double wall_s = 0;      ///< fork to reaped, parent's steady clock
  double cpu_s = 0;       ///< child user + sys
  double maxrss_mib = 0;  ///< child ru_maxrss
};

/// Runs `argv` to completion with stdin and stdout on /dev/null and stderr
/// appended to `stderr_log`.
ExecResult Exec(const std::vector<std::string>& argv,
                const std::string& stderr_log);

/// A spawned smpxd. Start() returns once the daemon printed its ready
/// line; the destructor stops it (SIGTERM) and reaps it.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `smpxd --socket socket_path`; false (with `err`) on failure.
  bool Start(const std::string& smpxd, const std::string& socket_path,
             const std::string& stderr_log, std::string* err);
  void Stop();
  std::string endpoint() const { return "unix:" + socket_path_; }

  /// User and system CPU seconds the daemon has used so far.
  bool Cpu(double* user_s, double* sys_s) const;
  /// Peak resident set (VmHWM) in MiB; 0 when unreadable.
  double PeakRssMib() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string socket_path_;
};

// ----------------------------------------------------------------- inputs

/// One projection query: an id and its projection-path list.
struct Query {
  const char* id;
  const char* paths;
};

/// XM1-XM14 and XM17-XM20 (paper Table I), in the fixed operation order.
const std::vector<Query>& XmarkQueries();
/// M1-M5 (paper Table II).
const std::vector<Query>& MedlineQueries();
/// The cursor/project query of the serving workload (M5's paths).
const Query& ServeQuery();

enum class Kind { kXmarkSerial, kXmarkMulti, kMedlineSharded, kMedlineServe };

/// One generated document, mapped back from its file so the harness and
/// the programs under test share one page-cache copy.
struct Doc {
  std::string path;  ///< absolute
  std::unique_ptr<smpx::MmapSource> map;
  std::string_view text;
  /// Oracle: the serial engine's output of each query over `text`.
  std::vector<Expected> expected;
};

/// A workload's inputs, generated from the seed and written to disk.
struct Inputs {
  Kind kind;
  std::string name;
  std::string dtd_path;  ///< absolute
  std::string dtd_text;
  std::vector<Query> queries;
  std::vector<Doc> docs;
  uint64_t total_bytes() const {
    uint64_t n = 0;
    for (const Doc& d : docs) n += d.text.size();
    return n;
  }
};

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;    ///< tiny inputs, for the benchmark's own tests
  bool corrupt = false;  ///< damage one output; it must count as failed
  std::string bin_dir;   ///< holds smpx and smpxd
  std::string work_dir;  ///< absolute; inputs, outputs, sockets, logs
  int threads = 1;       ///< nproc
};

const char* KindName(Kind kind);
bool ParseKind(const std::string& name, Kind* kind);
/// Generates the workload's document, writes it and the DTD under the work
/// directory, and computes the oracle's expected outputs.
bool MakeInputs(const Config& cfg, Kind kind, Inputs* in, std::string* err);
/// Serial-engine projection of `doc` for one path list (the oracle).
bool Project(const std::string& dtd_text, const char* paths,
             std::string_view doc, std::string* out, std::string* err);
/// Compares a file's content with the oracle's expectation.
bool FileMatches(const std::string& path, const Expected& want);
/// Flips one byte of a file (the smoke test's corrupted output).
void CorruptFile(const std::string& path);

// -------------------------------------------------------------- workloads

/// A smpx invocation and the files it must produce.
struct OfflineOp {
  std::vector<std::string> argv;
  uint64_t input_bytes = 0;
  std::vector<std::pair<std::string, Expected>> outputs;
};

/// The fixed operation sequence of an offline workload.
std::vector<OfflineOp> OfflineOps(const Config& cfg, const Inputs& in);

/// Execs one operation and checks every output it must produce against the
/// oracle, counting it in `rec`. While `*corrupt` is set, the first output
/// is damaged first (and the flag cleared), so the check must fail.
ExecResult RunOp(const Config& cfg, const OfflineOp& op, bool* corrupt,
                 Record* rec);

/// Runs an offline workload end to end: set-up execs, then whole rounds
/// of the operation sequence until `cfg.seconds` have passed.
void RunOffline(const Config& cfg, const Inputs& in, Record* rec);

/// Load shape of the serving workload.
struct LoadPlan {
  double cursor_rate = 4000;  ///< cursor requests per second, both conns
  double project_rate = 2;    ///< whole-document projects per second
  double seconds = 10;
  uint64_t seed = 1;
  uint64_t records = 1;  ///< top-level records; seek targets lie below
  bool corrupt = false;
};

struct LoadResult {
  std::vector<double> cursor_ms;   ///< from due time, successes only
  std::vector<double> project_ms;  ///< from due time, successes only
  std::vector<double> late_ms;     ///< send time minus due time
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejections = 0;  ///< retryable admission errors
  uint64_t bytes = 0;       ///< data bytes received
  double wall_s = 0;
};

/// Checks a streamed whole-document projection against the oracle's as
/// it arrives, without keeping it.
class ComparingSink : public smpx::OutputSink {
 public:
  explicit ComparingSink(const std::string& want) : want_(want) {}
  smpx::Status Append(std::string_view data) override {
    match_ = match_ && bytes_written_ + data.size() <= want_.size() &&
             want_.compare(bytes_written_, data.size(), data) == 0;
    bytes_written_ += data.size();
    return smpx::Status::Ok();
  }
  bool matches() const { return match_ && bytes_written_ == want_.size(); }

 private:
  const std::string& want_;
  bool match_ = true;
};

/// True when a cursor response's bytes are the slice of the full
/// projection that its trailer places them at.
bool CursorMatches(const std::string& projection,
                   const smpx::server::Trailer& t, std::string_view got);
/// Base request naming the document, DTD, and query.
smpx::server::Request BaseRequest(const Inputs& in, const char* paths);
/// Open-loop load: two connections send seek/resume cursor requests at
/// the fixed total rate, a third sends whole-document projects. Every
/// response is checked against `projection`.
LoadResult RunOpenLoop(const std::string& endpoint,
                       const smpx::server::Request& base,
                       const std::string& projection, const LoadPlan& plan);
/// Ordinal of the daemon's last indexed record (at least 1); seek targets
/// are drawn below it.
bool CountRecords(const std::string& endpoint,
                  const smpx::server::Request& base, uint64_t doc_size,
                  uint64_t* records);

/// Runs the serving workload end to end: set-up spawns, open-loop load
/// phases, then whole-document projects on the idle daemon.
void RunServe(const Config& cfg, const Inputs& in, Record* rec);

/// The traced run: every layer's library calls in process, with spans.
void RunTrace(const Config& cfg, const Inputs& in, Record* rec);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
