// Live clusters for the benchmark: a generated cluster config on probed
// free ports, amcast_noded processes spawned from it, and /proc readings of
// those processes.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checker.h"
#include "net/cluster_config.h"
#include "workload.h"

namespace perfbench {

/// Writes the workload's cluster config (replicas, then one client) on
/// fresh loopback ports to `path` and parses it back into `out`.
bool make_cluster_config(const Workload& w, const std::string& path,
                         amcast::net::ClusterConfig* out, std::string* error);

/// CPU time of each thread of `pid` (nanoseconds, by thread id) from
/// /proc/<pid>/task/*/schedstat, added to `out`: the time the thread ran,
/// not the time it waited for a CPU.
void add_thread_cpu_ns(pid_t pid, std::map<pid_t, std::int64_t>* out);
/// Context switches (voluntary + involuntary) of the listed threads of
/// this process, from /proc/self/task/<tid>/status.
std::int64_t thread_ctx_switches(const std::vector<pid_t>& tids);
/// Splits the CPUs this process may run on into the first `n` and the
/// rest, as sets for sched_setaffinity. False when they cannot be read.
bool split_cpus(int n, cpu_set_t* first, cpu_set_t* rest);
/// CPU time of one thread of this process (schedstat), nanoseconds.
std::int64_t thread_cpu_ns(pid_t tid);
/// Peak resident set (VmHWM) of `pid`, in KiB. -1 when unreadable.
std::int64_t process_hwm_kib(pid_t pid);

/// The daemons of one cluster. Every process is killed and reaped by
/// stop() or, failing that, the destructor — on every exit path.
class Daemons {
 public:
  Daemons() = default;
  ~Daemons();
  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;

  /// Spawns one amcast_noded per process group of `w` (all replicas in one
  /// daemon when the workload colocates them), confined to `cpus` unless
  /// null. Logs go to `dir`.
  bool start(const std::string& noded, const std::string& config_path,
             const amcast::net::ClusterConfig& cfg, const Workload& w,
             const std::string& dir, const cpu_set_t* cpus,
             std::string* error);
  /// Polls the logs until every hosted replica printed READY.
  bool wait_ready(double timeout_s, std::string* error);
  /// SIGTERM, reap (SIGKILL after `timeout_s`), then parse FINAL lines.
  bool stop(double timeout_s, std::vector<FinalReport>* finals,
            std::string* error);

  const std::vector<pid_t>& pids() const { return pids_; }
  /// CPU time (ns) of every thread of every daemon, by thread id.
  std::map<pid_t, std::int64_t> thread_cpu_ns() const;
  std::int64_t hwm_kib() const;
  /// Last lines of every log, for failure reports.
  std::string log_tails() const;

 private:
  void kill_all();
  std::vector<pid_t> pids_;
  std::vector<std::string> logs_;
  int replicas_ = 0;
};

}  // namespace perfbench
