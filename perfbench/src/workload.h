// The benchmark's workloads: cluster shape, protocol settings and traffic
// mix. Why each exists is recorded in BENCHMARK.json and README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Workload {
  std::string name;
  // --- cluster --------------------------------------------------------------
  int partitions = 1;         ///< partition rings, three replicas each
  /// A global ring over every replica; it orders the scans of the final
  /// check.
  bool global_ring = false;
  /// One daemon hosting every replica with this many executor threads;
  /// 0 = one single-threaded daemon per replica.
  int colocated_threads = 0;
  /// Confines every daemon to the first this-many CPUs the benchmark may
  /// use (0: not confined).
  int daemon_cpus = 0;
  double lambda = 500;        ///< rate-leveling instances/s per ring
  int delta_ms = 20;
  // --- traffic --------------------------------------------------------------
  double write = 0;           ///< share of updates; the rest are reads
  std::size_t value_bytes = 128;
  std::uint64_t keys = 10000;
  bool zipfian = false;
  double open_rate = 1000;    ///< open-loop Poisson arrivals per second
  /// Ops always in flight in the closed loop: enough that the cluster is
  /// saturated and its ring instances carry full batches.
  int closed_outstanding = 1024;
};

/// The three workloads; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

}  // namespace perfbench
