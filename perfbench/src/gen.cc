#include "gen.h"

#include <sys/prctl.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/assert.h"
#include "cluster.h"
#include "kvstore/messages.h"

namespace perfbench {

using amcast::kvstore::Op;
namespace duration = amcast::duration;

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const amcast::net::ProcessSpec& client_spec(
    const amcast::net::ClusterConfig& cfg) {
  for (const auto& p : cfg.processes) {
    if (p.role == "client") return p;
  }
  AMCAST_ASSERT_MSG(false, "cluster config has no client process");
  return cfg.processes.front();
}

}  // namespace

Checker make_checker(const amcast::net::ClusterConfig& cfg,
                     const Workload& w) {
  std::vector<std::vector<amcast::ProcessId>> parts;
  for (int p = 0; p < cfg.partition_count(); ++p) {
    parts.push_back(cfg.partition_replicas(p));
  }
  return Checker(client_spec(cfg).id, w.keys, w.value_bytes, parts);
}

// --- GenClient ---------------------------------------------------------------

GenClient::GenClient(amcast::core::ConfigRegistry& registry, Checker& checker,
                     const Workload& w,
                     std::vector<amcast::GroupId> partition_groups,
                     amcast::GroupId global_group, std::uint64_t seed)
    : amcast::core::MulticastNode(registry),
      checker_(checker),
      w_(w),
      pgroups_(std::move(partition_groups)),
      global_(global_group),
      rng_(seed) {
  if (w_.zipfian) {
    zipf_ = std::make_unique<amcast::ScrambledZipfianGenerator>(w_.keys);
  }
}

OpRecord GenClient::next_op() {
  OpRecord op;
  op.op = rng_.next_bool(w_.write) ? Op::kUpdate : Op::kRead;
  op.key = std::uint32_t(zipf_ ? zipf_->next(rng_) : rng_.next_u64(w_.keys));
  return op;
}

std::uint64_t GenClient::issue(OpRecord op, Time due, PhaseSamples* phase) {
  if (free_sessions_.empty()) free_sessions_.push_back(next_session_++);
  op.thread = free_sessions_.back();
  free_sessions_.pop_back();
  std::uint64_t seq = checker_.ops() + 1;
  checker_.add(seq, op);

  amcast::kvstore::Command c;
  c.op = op.op;
  c.client = id();
  c.thread = op.thread;
  c.seq = seq;
  c.key = key_name(op.key);
  if (op.op == Op::kScan) c.end_key = key_name(op.end_key);
  if (op.op == Op::kInsert || op.op == Op::kUpdate) {
    c.value = encode_value(op.key, seq, w_.value_bytes);
  }
  // Scans span partitions, so the global ring orders them.
  amcast::GroupId g = op.op == Op::kScan
                          ? global_
                          : pgroups_[std::size_t(
                                checker_.partition_of_key(op.key))];
  amcast::kvstore::CommandBatch batch;
  batch.commands.push_back(std::move(c));
  std::int64_t t0 = steady_ns();
  std::vector<std::uint8_t> bytes = batch.encode();
  encode_ns_ += steady_ns() - t0;
  amcast::MessageId mid = multicast_bytes(g, std::move(bytes));

  flight_.push_back(InFlight{due, phase, mid});
  ++awaiting_first_;
  ++awaiting_all_;
  if (phase != nullptr) ++phase->issued;
  return seq;
}

void GenClient::on_message(amcast::ProcessId from,
                           const amcast::env::MessagePtr& m) {
  if (m->type() != amcast::kvstore::kKvResponse) {
    amcast::core::MulticastNode::on_message(from, m);
    return;
  }
  const auto& resp = amcast::env::msg_cast<amcast::kvstore::KvResponseMsg>(m);
  for (const auto& r : resp.results) {
    ++responses_;
    if (r.seq == 0 || r.seq > checker_.ops()) {
      checker_.on_result(from, r);  // records the violation
      continue;
    }
    OpRecord& op = checker_.op(r.seq);
    std::uint64_t before = op.responders;
    bool first = before == 0;
    if (!checker_.on_result(from, r)) continue;
    if (op.responders == before) ++repeats_;
    if (first) {
      --awaiting_first_;
      ++completed_;
      const InFlight& f = flight_[std::size_t(r.seq - 1)];
      clear_proposal(f.mid);
      if (f.phase != nullptr) {
        (op.op == Op::kRead ? f.phase->read : f.phase->write)
            .push_back(now() - f.due);
      }
    }
    std::uint64_t want = checker_.expected_mask(op);
    if (before != want && op.responders == want) {
      --awaiting_all_;
      free_sessions_.push_back(op.thread);
    }
    if (first && on_complete_) on_complete_();
  }
}

// --- Gen ---------------------------------------------------------------------

Gen::Gen(const amcast::net::ClusterConfig& cfg, const Workload& w,
         std::uint64_t seed)
    : w_(w),
      seed_(seed),
      ex_({/*data_dir=*/"", seed}),
      checker_(make_checker(cfg, w)) {
  const amcast::net::ProcessSpec& self = client_spec(cfg);
  amcast::net::Transport::Options topts;
  topts.self = self.id;
  topts.listen_host = self.host;
  topts.listen_port = self.port;
  topts.peers = cfg.peer_map();
  transport_ = std::make_unique<amcast::net::Transport>(
      topts,
      [this](amcast::ProcessId from, amcast::ProcessId to,
             amcast::env::MessagePtr m) {
        ex_.dispatch(from, to, std::move(m));
      },
      [this] { return ex_.now(); });
  // This loop polls the transport itself (wait_until); the executor only
  // sends through it and runs timers.
  ex_.set_transport(transport_.get(), /*poll_it=*/false);
  cfg.build_registry(registry_);
  client_ = std::make_unique<GenClient>(registry_, checker_, w,
                                        cfg.partition_groups(),
                                        cfg.global_group(), seed);
  // Re-propose unanswered values after the cluster's proposal timeout, as
  // the program's own clients do: without it, about one run in 40 lost
  // every op in flight on ring3 (CHANGES.md, FOUND). Replicas answer a
  // re-proposed value again; the checker takes repeats into account.
  client_->set_default_proposal_timeout(cfg.options.proposal_timeout);
  ex_.add_node(self.id, client_.get());
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  AMCAST_ASSERT_MSG(timer_fd_ >= 0, "timerfd_create failed");
  // The default 50 us timer slack of this (the generator's) thread would
  // let arrivals fire that late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
}

Gen::~Gen() {
  if (timer_fd_ >= 0) ::close(timer_fd_);
}

bool Gen::listen(std::string* error) {
  if (!transport_->listen(error)) return false;
  ex_.run_once(0);  // starts the client node
  return true;
}

void Gen::wait_until(Time due) {
  Time now = ex_.now();
  if (due > now) {
    // steady_clock is CLOCK_MONOTONIC, and the executor counts from
    // epoch_steady_ns() on it.
    std::int64_t abs_ns = ex_.epoch_steady_ns() + due;
    itimerspec its{};
    its.it_value.tv_sec = abs_ns / 1000000000;
    its.it_value.tv_nsec = abs_ns % 1000000000;
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
    transport_->poll(due - now, timer_fd_);
    std::uint64_t expirations = 0;
    [[maybe_unused]] ssize_t rc =
        ::read(timer_fd_, &expirations, sizeof(expirations));
  } else {
    transport_->poll(0);
  }
  ex_.run_once(0);
}

bool Gen::pump_until(const std::function<bool()>& done, Time deadline) {
  while (!done()) {
    Time now = ex_.now();
    if (now >= deadline) return false;
    wait_until(std::min(deadline, now + duration::milliseconds(5)));
  }
  return true;
}

bool Gen::probe_partitions(Time deadline) {
  std::vector<bool> probed(std::size_t(w_.partitions), false);
  for (std::uint32_t k = 0; k < w_.keys; ++k) {
    int p = checker_.partition_of_key(k);
    if (probed[std::size_t(p)]) continue;
    probed[std::size_t(p)] = true;
    OpRecord op;
    op.op = Op::kRead;
    op.key = k;
    client_->issue(op, ex_.now(), nullptr);
  }
  return pump_until([this] { return client_->awaiting_first() == 0; },
                    deadline);
}

void Gen::begin_seconds(PhaseSamples* out) {
  out->start = ex_.now();
  next_second_ = out->start + duration::seconds(1);
  last_completed_ = client_->completed();
}

void Gen::close_seconds(PhaseSamples* out, Time end) {
  while (next_second_ <= std::min(ex_.now(), end)) {
    out->completions.push_back(client_->completed() - last_completed_);
    last_completed_ = client_->completed();
    next_second_ += duration::seconds(1);
  }
}

void Gen::open_loop(Duration len, PhaseSamples* out) {
  // Arrival times come from their own stream, so the schedule is the same
  // whatever the responses do.
  amcast::Rng arrivals(seed_ ^ 0x6172726976616c73ULL);
  begin_seconds(out);
  Time start = out->start;
  Time end = start + len;
  double mean_gap_ns = 1e9 / w_.open_rate;
  Time due = start + Time(arrivals.next_exponential(mean_gap_ns));
  while (due < end) {
    wait_until(due);
    Time now = ex_.now();
    while (due <= now && due < end) {
      client_->issue(client_->next_op(), due, out);
      out->lateness.push_back(ex_.now() - due);
      due += Time(arrivals.next_exponential(mean_gap_ns)) + 1;
    }
    close_seconds(out, end);
  }
  pump_until([&] { return ex_.now() >= end; }, end);
  close_seconds(out, end);
}

void Gen::closed_loop(int outstanding, Duration len, PhaseSamples* out) {
  begin_seconds(out);
  Time end = out->start + len;
  bool open = true;
  auto refill = [&] {
    while (open && client_->awaiting_first() < outstanding) {
      Time now = ex_.now();
      client_->issue(client_->next_op(), now, out);
    }
  };
  client_->set_on_complete(refill);
  refill();
  // Reads what arrived every 100 us instead of waking for each frame: the
  // responses of many ops are then handled per wake-up, which halves the
  // generator's CPU per op on global2_sharded (its replicas answer from one
  // daemon, frame by frame), so the generator does not limit the loop.
  while (ex_.now() < end) {
    timespec pause{0, 100000};
    ::nanosleep(&pause, nullptr);
    transport_->poll(0);
    ex_.run_once(0);
    close_seconds(out, end);
  }
  open = false;
  client_->set_on_complete(nullptr);
}

bool Gen::sweep(int outstanding, Time deadline, std::uint32_t count,
                const std::function<OpRecord(std::uint32_t)>& make) {
  std::uint32_t next = 0;
  auto refill = [&] {
    while (client_->awaiting_first() < outstanding && next < count) {
      client_->issue(make(next++), ex_.now(), nullptr);
    }
  };
  client_->set_on_complete(refill);
  refill();
  bool ok = pump_until(
      [&] { return next == count && client_->awaiting_first() == 0; },
      deadline);
  client_->set_on_complete(nullptr);
  return ok;
}

bool Gen::preload(int outstanding, Time deadline) {
  return sweep(outstanding, deadline, std::uint32_t(w_.keys),
               [](std::uint32_t k) {
                 OpRecord op;
                 op.op = Op::kInsert;
                 op.key = k;
                 return op;
               });
}

bool Gen::scan_all(int outstanding, Time deadline) {
  return sweep(outstanding, deadline, std::uint32_t(w_.keys / kScanKeys),
               [](std::uint32_t i) {
                 OpRecord op;
                 op.op = Op::kScan;
                 op.key = i * kScanKeys;
                 op.end_key = op.key + kScanKeys - 1;
                 return op;
               });
}

bool Gen::read_back(int outstanding, Time deadline) {
  return sweep(outstanding, deadline, std::uint32_t(w_.keys),
               [](std::uint32_t k) {
                 OpRecord op;
                 op.op = Op::kRead;
                 op.key = k;
                 op.readback = true;
                 return op;
               });
}

bool Gen::drain(Time deadline) {
  return pump_until([this] { return client_->awaiting_all() == 0; },
                    deadline);
}

}  // namespace perfbench
