// Records, statistics, hashing, and child processes for the harness.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

// ---------------------------------------------------------------- results

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Record::Note(const std::string& key, const std::string& text) {
  notes.emplace_back(key, text);
}
void Record::Prov(const std::string& key, const std::string& json_value) {
  provenance.emplace_back(key, json_value);
}
void Record::ProvNum(const std::string& key, double v) {
  Prov(key, JsonNumber(v));
}
void Record::ProvStr(const std::string& key, const std::string& s) {
  Prov(key, JsonString(s));
}

std::string Record::ToJson() const {
  std::ostringstream o;
  o << "{\"correct\": " << (failed == 0 ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"failed_frac\": "
    << JsonNumber(attempted == 0 ? 1.0
                                 : static_cast<double>(failed) /
                                       static_cast<double>(attempted))
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    o << (i == 0 ? "" : ", ") << JsonString(m.name)
      << ": {\"value\": " << JsonNumber(m.value)
      << ", \"unit\": " << JsonString(m.unit)
      << ", \"better\": " << JsonString(m.better)
      << ", \"deterministic\": " << (m.deterministic ? "true" : "false")
      << "}";
  }
  o << "}, \"provenance\": {";
  for (size_t i = 0; i < provenance.size(); ++i) {
    o << (i == 0 ? "" : ", ") << JsonString(provenance[i].first) << ": "
      << provenance[i].second;
  }
  o << "}, \"notes\": {";
  for (size_t i = 0; i < notes.size(); ++i) {
    o << (i == 0 ? "" : ", ") << JsonString(notes[i].first) << ": "
      << JsonString(notes[i].second);
  }
  o << "}}";
  return o.str();
}

// ------------------------------------------------------------ statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

}  // namespace

uint64_t Hash64(std::string_view data) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ data.size();
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, data.data() + i, 8);
    h = Rotl(h ^ (w * 0xbf58476d1ce4e5b9ull), 27) * 0x94d049bb133111ebull;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, data.data() + i, data.size() - i);
  h = Rotl(h ^ (tail * 0xbf58476d1ce4e5b9ull), 27) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

// -------------------------------------------------------------- processes

namespace {

std::vector<char*> Argv(const std::vector<std::string>& args) {
  std::vector<char*> out;
  for (const std::string& a : args) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

// Child side of a spawn, between fork and exec: only async-signal-safe
// calls. Dies with the harness, so no child outlives an aborted run.
[[noreturn]] void ExecChild(char* const* argv, int stdout_fd,
                            const char* stderr_log) {
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  int in = open("/dev/null", O_RDONLY);
  int err = open(stderr_log, O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (in < 0 || err < 0 || stdout_fd < 0) _exit(127);
  dup2(in, 0);
  dup2(stdout_fd, 1);
  dup2(err, 2);
  execv(argv[0], argv);
  _exit(127);
}

}  // namespace

ExecResult Exec(const std::vector<std::string>& argv,
                const std::string& stderr_log) {
  ExecResult r;
  std::vector<char*> args = Argv(argv);
  const auto t0 = Clock::now();
  pid_t pid = fork();
  if (pid == 0) {
    ExecChild(args.data(), open("/dev/null", O_WRONLY), stderr_log.c_str());
  }
  if (pid < 0) return r;
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.wall_s = Seconds(t0, Clock::now());
  auto tv = [](const timeval& t) { return t.tv_sec + 1e-6 * t.tv_usec; };
  r.cpu_s = tv(ru.ru_utime) + tv(ru.ru_stime);
  r.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

bool Daemon::Start(const std::string& smpxd, const std::string& socket_path,
                   const std::string& stderr_log, std::string* err) {
  Stop();
  socket_path_ = socket_path;
  ::unlink(socket_path.c_str());
  int fds[2];
  if (pipe(fds) != 0) {
    *err = "pipe failed";
    return false;
  }
  std::vector<std::string> argv = {smpxd, "--socket", socket_path};
  std::vector<char*> args = Argv(argv);
  pid_ = fork();
  if (pid_ == 0) {
    close(fds[0]);
    ExecChild(args.data(), fds[1], stderr_log.c_str());
  }
  close(fds[1]);
  if (pid_ < 0) {
    close(fds[0]);
    *err = "fork failed";
    return false;
  }
  stdout_fd_ = fds[0];
  // Wait (bounded) for the ready line; the listeners are bound after it.
  std::string line;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (line.find('\n') == std::string::npos) {
    const int left_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now())
            .count());
    pollfd p{stdout_fd_, POLLIN, 0};
    if (left_ms <= 0 || poll(&p, 1, left_ms) <= 0) break;
    char buf[256];
    ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  if (line.rfind("smpxd ready", 0) != 0) {
    *err = "smpxd did not become ready: '" + line + "'";
    Stop();
    return false;
  }
  return true;
}

void Daemon::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

bool Daemon::Cpu(double* user_s, double* sys_s) const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks[2] = {0, 0};
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks[i - 14] = std::atof(field.c_str());
  }
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  *user_s = ticks[0] / hz;
  *sys_s = ticks[1] / hz;
  return true;
}

double Daemon::PeakRssMib() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace perfbench
