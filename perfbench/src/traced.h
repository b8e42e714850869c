// The traced run: the cluster's replicas hosted inside the benchmark
// process, wired like amcast_noded wires them, with every layer timed from
// outside through hooks the program already has.
//
// Layout. Without colocation, each daemon becomes one Executor + Transport
// on its own thread (the daemon's --threads 1 loop), so ring traffic still
// crosses loopback TCP. A colocated workload becomes one ShardedRuntime
// with the daemon's shard count, a network thread, and one Transport.
//
// Hooks.
//  * TracedReplica (a kvstore::KvReplica subclass) times on_message,
//    on_ring_deliver and on_deliver. These nest (ring handling delivers to
//    the merge, the merge to the store), and each span's self time is its
//    duration minus that of the spans it contains, so the three give the
//    ringpaxos, core and kvstore layers.
//  * An Executor::set_router hook on every loop times Transport::send (the
//    net layer) and subtracts it from the enclosing span. On a sharded
//    runtime the hook also carries cross-shard sends on SPSC lanes it
//    registers itself, as the runtime's own router does.
//  * Counters come from RingNode::ring_counters, Transport::stats(), each
//    host's Metrics (ringpaxos.* retry counters) and the lifecycle
//    tracer's obs.stage_*_ms histograms, sampled on every value while the
//    measured phases run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "net/cluster_config.h"
#include "runtime/executor.h"
#include "workload.h"

namespace perfbench {

/// Accumulated self time of one layer, written by server threads.
struct LayerClock {
  std::atomic<std::int64_t> self_ns{0};
  std::atomic<std::int64_t> calls{0};
};

struct LayerClocks {
  LayerClock ringpaxos;  ///< RingNode::on_message
  LayerClock core;       ///< MulticastNode::on_ring_deliver (merge)
  LayerClock kvstore;    ///< KvReplica::on_deliver (apply + respond)
  LayerClock net;        ///< Transport::send
};

/// Times `clock` for the lifetime of the object, minus nested spans.
class Span {
 public:
  explicit Span(LayerClock* clock);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerClock* clock_;
  Span* parent_;
  std::int64_t start_;
  std::int64_t child_ns_ = 0;
};

/// Everything the traced run reads at the start and end of the measured
/// phases; per-layer metrics are differences of two of these.
struct LayerSample {
  std::int64_t ringpaxos_ns = 0, core_ns = 0, kvstore_ns = 0, net_ns = 0;
  std::int64_t net_sends = 0;
  std::int64_t frames = 0, bytes = 0;  ///< Transport::stats, every transport
  std::int64_t decided = 0, skipped = 0, values = 0;  ///< coordinators
  std::int64_t retries = 0;        ///< ringpaxos.* retry counters
  std::int64_t lane_drops = 0;     ///< Executor::posts_dropped
  std::int64_t ctx_switches = 0;   ///< server threads
  std::int64_t coord_cpu_ns = 0;   ///< thread hosting partition 0's coordinator
};

class TracedCluster {
 public:
  TracedCluster(const amcast::net::ClusterConfig& cfg, const Workload& w);
  ~TracedCluster();
  TracedCluster(const TracedCluster&) = delete;
  TracedCluster& operator=(const TracedCluster&) = delete;

  /// Listens on every server address and starts the server threads.
  bool start(std::string* error);
  /// The client's router: times its Transport::send calls into the same
  /// net clock and counts its frames with the servers' (install on the
  /// generator's executor before it runs).
  amcast::runtime::Executor::Router client_router(
      amcast::net::Transport& transport);

  /// Turns stage tracing of every value on or off.
  void set_tracing(bool on);
  /// Reads the layer counters.
  LayerSample sample();
  /// p50 of obs.stage_<name>_ms over every host, in milliseconds, and the
  /// number of traces behind it. Call after stop().
  double stage_p50_ms(const std::string& name, std::uint64_t* count) const;

  /// Stops and joins every server thread, then reports each replica's
  /// applied count and order/store hashes as amcast_noded's FINAL does.
  void stop(std::vector<FinalReport>* finals);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  LayerClocks clocks_;
  amcast::net::Transport* client_transport_ = nullptr;
};

}  // namespace perfbench
