#include "traced.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>

#include "cluster.h"
#include "kvstore/replica.h"
#include "net/transport.h"
#include "runtime/sharding.h"

namespace perfbench {

namespace {

namespace rt = amcast::runtime;
using amcast::GroupId;
using amcast::InstanceId;
using amcast::ProcessId;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local Span* tl_top = nullptr;

/// A kvstore::KvReplica whose three nested entry points are timed.
class TracedReplica final : public amcast::kvstore::KvReplica {
 public:
  TracedReplica(amcast::core::ConfigView config,
                amcast::kvstore::KvReplicaOptions opts, LayerClocks* clocks)
      : amcast::kvstore::KvReplica(config, std::move(opts)), clocks_(clocks) {}

  void on_message(ProcessId from, const amcast::env::MessagePtr& m) override {
    Span s(&clocks_->ringpaxos);
    amcast::kvstore::KvReplica::on_message(from, m);
  }

 protected:
  void on_ring_deliver(GroupId g, InstanceId first, std::int32_t count,
                       const amcast::ringpaxos::ValuePtr& v) override {
    Span s(&clocks_->core);
    amcast::kvstore::KvReplica::on_ring_deliver(g, first, count, v);
  }
  void on_deliver(GroupId g, const amcast::ringpaxos::ValuePtr& v) override {
    Span s(&clocks_->kvstore);
    amcast::kvstore::KvReplica::on_deliver(g, v);
  }

 private:
  LayerClocks* clocks_;
};

/// Runs `fn` on `ex`'s loop thread and waits for its result.
template <class F>
auto run_on(rt::Executor& ex, F fn) -> decltype(fn()) {
  // Shared: the loop thread may still be inside set_value when get()
  // returns here.
  auto p = std::make_shared<std::promise<decltype(fn())>>();
  auto result = p->get_future();
  ex.schedule_after(0, [p, fn] { p->set_value(fn()); });
  return result.get();
}

std::vector<pid_t> other_threads() {
  std::vector<pid_t> out;
  pid_t self = ::gettid();
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      pid_t tid = pid_t(std::atoi(e->d_name));
      if (tid != self) out.push_back(tid);
    }
    ::closedir(d);
  }
  return out;
}

std::int64_t transport_frames(const amcast::net::Transport& t,
                              std::int64_t* bytes) {
  amcast::net::Transport::Stats s = t.stats();
  *bytes += std::int64_t(s.bytes_sent);
  return std::int64_t(s.frames_sent);
}

}  // namespace

Span::Span(LayerClock* clock)
    : clock_(clock), parent_(tl_top), start_(steady_ns()) {
  tl_top = this;
}

Span::~Span() {
  std::int64_t d = steady_ns() - start_;
  tl_top = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += d;
  clock_->self_ns.fetch_add(d - child_ns_, std::memory_order_relaxed);
  clock_->calls.fetch_add(1, std::memory_order_relaxed);
}

struct TracedCluster::Impl {
  struct Hosted {
    const amcast::net::ProcessSpec* spec = nullptr;
    amcast::core::ConfigRegistry registry;  // outlives the replica
    std::unique_ptr<TracedReplica> replica;
    std::uint64_t order_hash = kFnvBasis;
    rt::Executor* loop = nullptr;
  };
  /// One daemon of the --threads 1 layout.
  struct Server {
    std::unique_ptr<rt::Executor> ex;
    std::unique_ptr<amcast::net::Transport> transport;
    std::thread thread;
  };

  const amcast::net::ClusterConfig& cfg;
  const Workload& w;
  // Declared before the loops that run them: destroyed after they stop.
  std::vector<std::unique_ptr<Hosted>> hosted;
  std::vector<Server> servers;
  std::unique_ptr<amcast::net::Transport> shared_transport;
  std::unique_ptr<rt::ShardedRuntime> sharded;
  std::vector<rt::Executor*> loops;
  std::vector<amcast::net::Transport*> transports;
  rt::Executor* coord_loop = nullptr;
  std::atomic<pid_t> coord_tid{0};
  bool running = false;

  Impl(const amcast::net::ClusterConfig& c, const Workload& wl)
      : cfg(c), w(wl) {}
};

TracedCluster::TracedCluster(const amcast::net::ClusterConfig& cfg,
                             const Workload& w)
    : impl_(std::make_unique<Impl>(cfg, w)) {}

TracedCluster::~TracedCluster() { stop(nullptr); }

bool TracedCluster::start(std::string* error) {
  Impl& s = *impl_;
  const auto& cfg = s.cfg;
  std::vector<const amcast::net::ProcessSpec*> specs;
  for (const auto& p : cfg.processes) {
    if (p.role == "replica") specs.push_back(&p);
  }
  LayerClocks* clocks = &clocks_;

  if (s.w.colocated_threads > 0) {
    rt::ShardedRuntimeOptions so;
    so.shards = s.w.colocated_threads;
    so.seed = std::uint64_t(specs[0]->id) + 1;
    s.sharded = std::make_unique<rt::ShardedRuntime>(so);
    rt::ShardedRuntime* rtp = s.sharded.get();
    amcast::net::Transport::Options topts;
    topts.self = specs[0]->id;
    topts.listen_host = specs[0]->host;
    topts.listen_port = specs[0]->port;
    topts.peers = cfg.peer_map();
    for (const auto* p : specs) topts.local_ids.push_back(p->id);
    s.shared_transport = std::make_unique<amcast::net::Transport>(
        topts,
        [rtp](ProcessId from, ProcessId to, amcast::env::MessagePtr m) {
          rtp->dispatch(from, to, std::move(m));
        },
        [rtp] { return rtp->shard(0).now(); });
    if (!s.shared_transport->listen(error)) return false;
    rtp->set_transport(s.shared_transport.get());
    s.transports.push_back(s.shared_transport.get());
    // The timing router replaces the runtime's own, so it carries the
    // cross-shard hops too: on lanes of its own, registered before start.
    int n = rtp->shards();
    auto lanes = std::make_shared<std::vector<std::vector<int>>>(
        std::size_t(n), std::vector<int>(std::size_t(n), -1));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) (*lanes)[std::size_t(i)][std::size_t(j)] =
            rtp->shard(j).add_post_source();
      }
    }
    amcast::net::Transport* t = s.shared_transport.get();
    for (int i = 0; i < n; ++i) {
      rtp->shard(i).set_router([rtp, lanes, i, t, clocks](
                                   ProcessId from, ProcessId to,
                                   const amcast::env::MessagePtr& m) {
        int j = rtp->owner_shard(to);
        if (j >= 0) {
          rtp->shard(j).post((*lanes)[std::size_t(i)][std::size_t(j)], from,
                             to, amcast::env::MessagePtr(m));
          return true;
        }
        Span span(&clocks->net);
        t->send(from, to, *m);
        return true;
      });
      s.loops.push_back(&rtp->shard(i));
    }
  } else {
    for (const auto* p : specs) {
      Impl::Server srv;
      rt::ExecutorOptions eo;
      eo.seed = std::uint64_t(p->id) + 1;
      srv.ex = std::make_unique<rt::Executor>(eo);
      rt::Executor* ex = srv.ex.get();
      amcast::net::Transport::Options topts;
      topts.self = p->id;
      topts.listen_host = p->host;
      topts.listen_port = p->port;
      topts.peers = cfg.peer_map();
      srv.transport = std::make_unique<amcast::net::Transport>(
          topts,
          [ex](ProcessId from, ProcessId to, amcast::env::MessagePtr m) {
            ex->dispatch(from, to, std::move(m));
          },
          [ex] { return ex->now(); });
      if (!srv.transport->listen(error)) return false;
      ex->set_transport(srv.transport.get());
      amcast::net::Transport* t = srv.transport.get();
      ex->set_router([t, clocks](ProcessId from, ProcessId to,
                                 const amcast::env::MessagePtr& m) {
        Span span(&clocks->net);
        t->send(from, to, *m);
        return true;
      });
      s.transports.push_back(t);
      s.loops.push_back(ex);
      s.servers.push_back(std::move(srv));
    }
  }

  // Replicas, wired as amcast_noded wires them.
  int partitions = cfg.partition_count();
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const auto* spec = specs[k];
    auto h = std::make_unique<Impl::Hosted>();
    h->spec = spec;
    std::vector<GroupId> groups = cfg.build_registry(h->registry);
    std::vector<GroupId> pgroups = cfg.partition_groups();
    amcast::kvstore::KvReplicaOptions ko;
    ko.partition = spec->partition;
    ko.partitioner = amcast::kvstore::Partitioner::hash(partitions);
    ko.recovery.checkpoint_interval = cfg.options.checkpoint_interval;
    h->replica = std::make_unique<TracedReplica>(
        amcast::core::ConfigView(h->registry), ko, clocks);
    h->replica->add_disk(amcast::env::DiskParams{});
    h->replica->set_partition(cfg.partition_replicas(spec->partition));
    h->replica->set_return_read_data(true);
    std::uint64_t* hash = &h->order_hash;
    h->replica->set_apply_observer([hash](const amcast::kvstore::Command& c) {
      std::uint64_t ids[3] = {std::uint64_t(c.client) << 32 |
                                  std::uint64_t(std::uint32_t(c.thread)),
                              c.seq, std::uint64_t(c.op)};
      *hash = fnv1a64(*hash, ids, sizeof(ids));
      *hash = fnv1a64(*hash, c.key.data(), c.key.size());
    });
    if (s.sharded) {
      int shard = spec->partition % s.sharded->shards();
      s.sharded->add_node(shard, spec->id, h->replica.get());
      h->loop = &s.sharded->shard(shard);
    } else {
      s.servers[k].ex->add_node(spec->id, h->replica.get());
      h->loop = s.servers[k].ex.get();
    }
    amcast::ringpaxos::RingOptions ro = cfg.ring_options();
    amcast::core::MergeOptions mo;
    mo.m = cfg.options.m;
    GroupId pg = pgroups[std::size_t(spec->partition)];
    GroupId global = cfg.global_group();
    h->replica->attach(pg, global, ro, mo);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (groups[i] == pg || groups[i] == global) continue;
      const auto& members = cfg.rings[i].members;
      if (std::find(members.begin(), members.end(), spec->id) !=
          members.end()) {
        h->replica->join_only(groups[i], ro);
      }
    }
    if (h->replica->disk_count() > 0) {
      h->replica->disk(0).forget_stored_records();
    }
    if (spec->id == cfg.rings[0].coordinator) s.coord_loop = h->loop;
    s.hosted.push_back(std::move(h));
  }

  std::atomic<pid_t>* coord_tid = &s.coord_tid;
  rt::Executor* coord_loop = s.coord_loop;
  coord_loop->schedule_after(0, [coord_tid] { coord_tid->store(::gettid()); });
  if (s.sharded) {
    s.sharded->start();
  } else {
    for (Impl::Server& srv : s.servers) {
      rt::Executor* ex = srv.ex.get();
      srv.thread = std::thread([ex] { ex->run(); });
    }
  }
  s.running = true;
  // Confined like the daemons they stand for, and the calling (generator)
  // thread kept off their CPUs (Workload::daemon_cpus).
  cpu_set_t cpus, rest;
  if (s.w.daemon_cpus > 0 && split_cpus(s.w.daemon_cpus, &cpus, &rest)) {
    for (pid_t tid : other_threads()) {
      ::sched_setaffinity(tid, sizeof(cpus), &cpus);
    }
    ::sched_setaffinity(0, sizeof(rest), &rest);
  }
  return true;
}

amcast::runtime::Executor::Router TracedCluster::client_router(
    amcast::net::Transport& transport) {
  client_transport_ = &transport;
  LayerClocks* clocks = &clocks_;
  amcast::net::Transport* t = &transport;
  return [t, clocks](ProcessId from, ProcessId to,
                     const amcast::env::MessagePtr& m) {
    Span span(&clocks->net);
    t->send(from, to, *m);
    return true;
  };
}

void TracedCluster::set_tracing(bool on) {
  for (rt::Executor* ex : impl_->loops) {
    amcast::Tracer::Options o;
    o.sample_every = on ? 1 : 0;
    o.ring_capacity = 16;
    o.max_active = 1u << 16;
    ex->tracer().configure(o);
  }
}

LayerSample TracedCluster::sample() {
  Impl& s = *impl_;
  LayerSample out;
  out.ringpaxos_ns = clocks_.ringpaxos.self_ns.load();
  out.core_ns = clocks_.core.self_ns.load();
  out.kvstore_ns = clocks_.kvstore.self_ns.load();
  out.net_ns = clocks_.net.self_ns.load();
  out.net_sends = clocks_.net.calls.load();
  for (amcast::net::Transport* t : s.transports) {
    out.frames += transport_frames(*t, &out.bytes);
  }
  if (client_transport_ != nullptr) {
    out.frames += transport_frames(*client_transport_, &out.bytes);
  }
  // Ring counters at each ring's coordinator, read on its loop thread.
  for (std::size_t i = 0; i < s.cfg.rings.size(); ++i) {
    GroupId g = GroupId(i);
    for (const auto& h : s.hosted) {
      if (h->spec->id != s.cfg.rings[i].coordinator) continue;
      TracedReplica* r = h->replica.get();
      auto c = run_on(*h->loop, [r, g] { return r->ring_counters(g); });
      out.decided += c.decided_instances;
      out.skipped += c.skipped_instances;
      out.values += c.delivered_values;
    }
  }
  amcast::MetricsSnapshot m =
      rt::gather_metrics(s.loops, amcast::duration::seconds(5));
  for (const char* name :
       {"ringpaxos.reproposals", "ringpaxos.instance_retries",
        "ringpaxos.phase1_retries", "ringpaxos.gap_repair_requests"}) {
    auto it = m.counters.find(name);
    if (it != m.counters.end()) out.retries += it->second;
  }
  for (rt::Executor* ex : s.loops) {
    out.lane_drops += std::int64_t(ex->posts_dropped());
  }
  out.ctx_switches = thread_ctx_switches(other_threads());
  out.coord_cpu_ns = thread_cpu_ns(s.coord_tid.load());
  return out;
}

double TracedCluster::stage_p50_ms(const std::string& name,
                                   std::uint64_t* count) const {
  amcast::MetricsSnapshot merged;
  for (rt::Executor* ex : impl_->loops) merged.merge(ex->metrics().snapshot());
  auto it = merged.histograms.find("obs.stage_" + name + "_ms");
  if (it == merged.histograms.end()) {
    *count = 0;
    return 0;
  }
  *count = it->second.count();
  return it->second.p50_ms();
}

void TracedCluster::stop(std::vector<FinalReport>* finals) {
  Impl& s = *impl_;
  if (s.running) {
    if (s.sharded) {
      s.sharded->stop();
    } else {
      for (Impl::Server& srv : s.servers) srv.ex->stop();
      for (Impl::Server& srv : s.servers) {
        if (srv.thread.joinable()) srv.thread.join();
      }
    }
    s.running = false;
  }
  if (finals == nullptr) return;
  for (const auto& h : s.hosted) {
    FinalReport f;
    f.node = h->spec->id;
    f.applied = h->replica->commands_applied();
    f.order_hash = h->order_hash;
    std::uint64_t store = kFnvBasis;
    auto tree = h->replica->store().snapshot();
    for (const auto& [key, value] : *tree) {
      store = fnv1a64(store, key.data(), key.size());
      store = fnv1a64(store, value.data(), value.size());
    }
    f.store_hash = store;
    finals->push_back(f);
  }
}

}  // namespace perfbench
