#include "cluster.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/strings.h"

namespace perfbench {

namespace {

/// `n` distinct free loopback ports: all sockets stay bound until every
/// port is chosen. The daemons bind them a moment later; a lost race fails
/// the run loudly at READY.
bool probe_ports(int n, std::vector<int>* out) {
  std::vector<int> fds;
  bool ok = true;
  for (int i = 0; i < n && ok; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      ok = false;
      break;
    }
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
         ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    if (ok) out->push_back(int(ntohs(addr.sin_port)));
  }
  for (int fd : fds) ::close(fd);
  return ok;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string json_list(const std::vector<int>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i ? ", " : "") + std::to_string(v[i]);
  }
  return s + "]";
}

/// The integer after `field` (e.g. "VmHWM:") in a /proc status file.
std::int64_t status_field(const std::string& text, const char* field) {
  std::size_t at = text.find(field);
  if (at == std::string::npos) return -1;
  return std::strtoll(text.c_str() + at + std::strlen(field), nullptr, 10);
}

std::int64_t schedstat_ns(const std::string& path) {
  std::string s = read_file(path);
  if (s.empty()) return -1;
  return std::strtoll(s.c_str(), nullptr, 10);
}

}  // namespace

bool make_cluster_config(const Workload& w, const std::string& path,
                         amcast::net::ClusterConfig* out, std::string* error) {
  int replicas = 3 * w.partitions;
  bool colocated = w.colocated_threads > 0;
  std::vector<int> ports;
  if (!probe_ports(colocated ? 2 : replicas + 1, &ports)) {
    *error = "cannot probe free loopback ports";
    return false;
  }
  std::ostringstream js;
  js << "{\n  \"cluster\": \"perfbench-" << w.name << "\",\n"
     << "  \"service\": \"kv\",\n  \"processes\": [\n";
  for (int i = 0; i < replicas; ++i) {
    js << "    {\"id\": " << i << ", \"name\": \"r" << i
       << "\", \"host\": \"127.0.0.1\", \"port\": "
       << ports[std::size_t(colocated ? 0 : i)]
       << ", \"role\": \"replica\", \"partition\": " << i / 3 << "},\n";
  }
  js << "    {\"id\": " << replicas
     << ", \"name\": \"client\", \"host\": \"127.0.0.1\", \"port\": "
     << ports.back() << ", \"role\": \"client\"}\n  ],\n  \"rings\": [\n";
  for (int p = 0; p < w.partitions; ++p) {
    std::vector<int> m = {3 * p, 3 * p + 1, 3 * p + 2};
    js << "    {\"kind\": \"partition\", \"partition\": " << p
       << ", \"members\": " << json_list(m) << ", \"acceptors\": "
       << json_list(m) << ", \"coordinator\": " << 3 * p << "}"
       << (p + 1 < w.partitions || w.global_ring ? "," : "") << "\n";
  }
  if (w.global_ring) {
    std::vector<int> all;
    for (int i = 0; i < replicas; ++i) all.push_back(i);
    // Coordinated by a replica that coordinates no partition ring.
    js << "    {\"kind\": \"global\", \"members\": " << json_list(all)
       << ", \"acceptors\": " << json_list(all)
       << ", \"coordinator\": 1}\n";
  }
  // Protocol options not listed keep the program's defaults
  // (net::ClusterOptions), timeouts and batching included.
  js << "  ],\n  \"options\": {\n"
     << "    \"storage\": \"memory\",\n"
     << "    \"delta_ms\": " << w.delta_ms << ",\n"
     << "    \"lambda\": " << w.lambda << "\n  }\n}\n";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << js.str();
    if (!f) {
      *error = "cannot write " + path;
      return false;
    }
  }
  return amcast::net::ClusterConfig::parse(js.str(), out, error);
}

void add_thread_cpu_ns(pid_t pid, std::map<pid_t, std::int64_t>* out) {
  std::string dir = amcast::str_cat("/proc/", std::to_string(pid), "/task");
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::int64_t ns = schedstat_ns(dir + "/" + e->d_name + "/schedstat");
    if (ns >= 0) (*out)[pid_t(std::atoi(e->d_name))] = ns;
  }
  ::closedir(d);
}

bool split_cpus(int n, cpu_set_t* first, cpu_set_t* rest) {
  cpu_set_t allowed;
  CPU_ZERO(first);
  CPU_ZERO(rest);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, n-- > 0 ? first : rest);
  }
  return true;
}

std::int64_t thread_cpu_ns(pid_t tid) {
  return schedstat_ns(
      amcast::str_cat("/proc/self/task/", std::to_string(tid), "/schedstat"));
}

std::int64_t thread_ctx_switches(const std::vector<pid_t>& tids) {
  std::int64_t total = 0;
  for (pid_t tid : tids) {
    std::string s = read_file(
        amcast::str_cat("/proc/self/task/", std::to_string(tid), "/status"));
    total += std::max<std::int64_t>(0, status_field(s, "voluntary_ctxt_switches:"));
    total += std::max<std::int64_t>(
        0, status_field(s, "nonvoluntary_ctxt_switches:"));
  }
  return total;
}

std::int64_t process_hwm_kib(pid_t pid) {
  return status_field(
      read_file(amcast::str_cat("/proc/", std::to_string(pid), "/status")),
      "VmHWM:");
}

// --- Daemons -----------------------------------------------------------------

Daemons::~Daemons() { kill_all(); }

bool Daemons::start(const std::string& noded, const std::string& config_path,
                    const amcast::net::ClusterConfig& cfg, const Workload& w,
                    const std::string& dir, const cpu_set_t* cpus,
                    std::string* error) {
  std::vector<std::string> groups;  // --process argument per daemon
  for (const auto& p : cfg.processes) {
    if (p.role != "replica") continue;
    ++replicas_;
    if (w.colocated_threads > 0 && !groups.empty()) {
      groups.back() += "," + p.name;
    } else {
      groups.push_back(p.name);
    }
  }
  std::string threads = std::to_string(std::max(1, w.colocated_threads));
  for (const std::string& names : groups) {
    std::string tag = names.substr(0, names.find(','));
    std::string log = dir + "/" + tag + ".log";
    std::string data = dir + "/" + tag;
    // STATUS lines rehash the whole store on every tick, which would be
    // measured as server CPU; they stay off and hashes come from FINAL.
    std::vector<std::string> args = {noded,        "--config",
                                     config_path,  "--process",
                                     names,        "--data-dir",
                                     data,         "--threads",
                                     threads,      "--status-interval-ms",
                                     "0"};
    int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) {
      *error = "cannot create " + log;
      return false;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fd);
      *error = "fork failed";
      return false;
    }
    if (pid == 0) {
      // Die with mrpbench, whatever way it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (cpus != nullptr) ::sched_setaffinity(0, sizeof(*cpus), cpus);
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fd);
    pids_.push_back(pid);
    logs_.push_back(log);
  }
  return true;
}

bool Daemons::wait_ready(double timeout_s, std::string* error) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(std::int64_t(timeout_s * 1e6));
  while (std::chrono::steady_clock::now() < deadline) {
    int ready = 0;
    for (const std::string& log : logs_) {
      std::string s = read_file(log);
      for (std::size_t at = s.find("READY node="); at != std::string::npos;
           at = s.find("READY node=", at + 1)) {
        ++ready;
      }
    }
    if (ready >= replicas_) return true;
    for (pid_t pid : pids_) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pids_.erase(std::find(pids_.begin(), pids_.end(), pid));
        *error = "amcast_noded exited during start-up";
        return false;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *error = "amcast_noded did not print READY in time";
  return false;
}

void Daemons::kill_all() {
  for (pid_t pid : pids_) ::kill(pid, SIGKILL);
  for (pid_t pid : pids_) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  pids_.clear();
}

bool Daemons::stop(double timeout_s, std::vector<FinalReport>* finals,
                   std::string* error) {
  for (pid_t pid : pids_) ::kill(pid, SIGTERM);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(std::int64_t(timeout_s * 1e6));
  bool clean = true;
  while (!pids_.empty()) {
    for (std::size_t i = 0; i < pids_.size();) {
      int status = 0;
      if (::waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) clean = false;
        pids_.erase(pids_.begin() + std::ptrdiff_t(i));
      } else {
        ++i;
      }
    }
    if (pids_.empty()) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      kill_all();
      *error = "amcast_noded did not exit on SIGTERM";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!clean) {
    *error = "amcast_noded exited with an error";
    return false;
  }
  if (finals == nullptr) return true;
  for (const std::string& log : logs_) {
    std::istringstream in(read_file(log));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("FINAL ", 0) != 0) continue;
      FinalReport f;
      long long node = 0, applied = 0, dups = 0;
      unsigned long long order = 0, store = 0;
      if (std::sscanf(line.c_str(),
                      "FINAL node=%lld applied=%lld duplicates=%lld "
                      "order_hash=%llx store_hash=%llx",
                      &node, &applied, &dups, &order, &store) == 5) {
        f.node = amcast::ProcessId(node);
        f.applied = applied;
        f.order_hash = order;
        f.store_hash = store;
        finals->push_back(f);
      }
    }
  }
  return true;
}

std::map<pid_t, std::int64_t> Daemons::thread_cpu_ns() const {
  std::map<pid_t, std::int64_t> out;
  for (pid_t pid : pids_) add_thread_cpu_ns(pid, &out);
  return out;
}

std::int64_t Daemons::hwm_kib() const {
  std::int64_t total = 0;
  for (pid_t pid : pids_) {
    total += std::max<std::int64_t>(0, process_hwm_kib(pid));
  }
  return total;
}

std::string Daemons::log_tails() const {
  std::string out;
  for (const std::string& log : logs_) {
    std::string s = read_file(log);
    std::size_t from = s.size() > 2000 ? s.size() - 2000 : 0;
    out += "--- " + log + "\n" + s.substr(from);
  }
  return out;
}

}  // namespace perfbench
