// The benchmark's client ("gen"): one core::MulticastNode on a
// runtime::Executor, driven by an on-time loop that owns Transport::poll.
//
// The executor's own loop rounds poll timeouts up to whole milliseconds,
// which at 10k arrivals/s would send most requests late. Here the loop
// waits on a timerfd armed at the next arrival's due time (nanosecond
// resolution) next to the sockets, so each request leaves when it is due;
// the difference is recorded per op as lateness.
//
// Every op is one command in one multicast value. The client counts an op
// complete at its first response (latency) and frees its session only when
// every replica that must answer has answered, so a session never has two
// ops in flight and replica-side write dedup never sees an overtaken
// sequence number.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "checker.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/multicast.h"
#include "net/cluster_config.h"
#include "net/transport.h"
#include "runtime/executor.h"
#include "workload.h"

namespace perfbench {

using amcast::Duration;
using amcast::Time;

/// Keys per scan of scan_all().
inline constexpr std::uint32_t kScanKeys = 16;

/// Latencies of one phase (ns), by op kind, measured from the due time.
struct PhaseSamples {
  Time start = 0;  ///< when the phase began
  std::vector<Time> read, write;
  /// Ops completed in each whole second of the phase.
  std::vector<std::int64_t> completions;
  std::vector<Time> lateness;  ///< send time minus due time (open loop)
  std::int64_t issued = 0;
};

class GenClient final : public amcast::core::MulticastNode {
 public:
  GenClient(amcast::core::ConfigRegistry& registry, Checker& checker,
            const Workload& w, std::vector<amcast::GroupId> partition_groups,
            amcast::GroupId global_group, std::uint64_t seed);

  /// Sends one op due at `due` and accounts it to `phase` (nullptr: not
  /// measured). Returns its sequence number.
  std::uint64_t issue(OpRecord op, Time due, PhaseSamples* phase);
  /// Next op of the workload's mix, drawn from the seeded generator.
  OpRecord next_op();

  /// Called at each op's first response (closed loops refill here).
  void set_on_complete(std::function<void()> fn) {
    on_complete_ = std::move(fn);
  }

  void on_message(amcast::ProcessId from,
                  const amcast::env::MessagePtr& m) override;

  /// Ops whose first response has not arrived yet.
  std::int64_t awaiting_first() const { return awaiting_first_; }
  /// Ops some replica still owes an answer to.
  std::int64_t awaiting_all() const { return awaiting_all_; }
  /// Ops whose first response arrived.
  std::int64_t completed() const { return completed_; }
  std::int64_t issued() const { return std::int64_t(checker_.ops()); }
  std::int64_t responses() const { return responses_; }
  /// Responses from a replica that had already answered the op (the
  /// answers to a re-proposed value).
  std::int64_t repeats() const { return repeats_; }
  std::int64_t encode_ns() const { return encode_ns_; }

 private:
  struct InFlight {
    Time due = 0;
    PhaseSamples* phase = nullptr;
    amcast::MessageId mid = 0;  ///< tracked for re-proposal until answered
  };

  Checker& checker_;
  const Workload& w_;
  std::vector<amcast::GroupId> pgroups_;
  amcast::GroupId global_;
  amcast::Rng rng_;
  std::unique_ptr<amcast::ScrambledZipfianGenerator> zipf_;
  std::vector<InFlight> flight_;  ///< by seq - 1
  std::vector<std::int32_t> free_sessions_;
  std::int32_t next_session_ = 0;
  std::int64_t awaiting_first_ = 0;
  std::int64_t awaiting_all_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t responses_ = 0;
  std::int64_t repeats_ = 0;
  std::int64_t encode_ns_ = 0;
  std::function<void()> on_complete_;
};

/// The client side of one cluster: executor, transport (polled by this
/// loop), client node and checker.
class Gen {
 public:
  /// `cfg` must name a process with role "client".
  Gen(const amcast::net::ClusterConfig& cfg, const Workload& w,
      std::uint64_t seed);
  ~Gen();
  Gen(const Gen&) = delete;
  Gen& operator=(const Gen&) = delete;

  /// Listens and starts the client node; the executor runs from here on.
  bool listen(std::string* error);
  Time now() const { return ex_.now(); }

  /// Services IO and timers until `done()` or `deadline`; true if done.
  bool pump_until(const std::function<bool()>& done, Time deadline);

  /// One op per partition (reads of keys it owns) until each is answered:
  /// the end of set-up. True when all arrived before `deadline`.
  bool probe_partitions(Time deadline);
  /// Inserts every key once, `outstanding` at a time.
  bool preload(int outstanding, Time deadline);
  /// Poisson arrivals at the workload's open rate for `len`.
  void open_loop(Duration len, PhaseSamples* out);
  /// `outstanding` ops always in flight for `len` (whole seconds).
  void closed_loop(int outstanding, Duration len, PhaseSamples* out);
  /// Scans the whole key space in ranges of kScanKeys through the global
  /// ring, `outstanding` at a time.
  bool scan_all(int outstanding, Time deadline);
  /// Reads every key back, `outstanding` at a time.
  bool read_back(int outstanding, Time deadline);
  /// Waits until every replica answered every op.
  bool drain(Time deadline);

  GenClient& client() { return *client_; }
  Checker& checker() { return checker_; }
  amcast::net::Transport& transport() { return *transport_; }
  amcast::runtime::Executor& executor() { return ex_; }

 private:
  /// Issues make(0..count-1), `outstanding` at a time, until all answered.
  bool sweep(int outstanding, Time deadline, std::uint32_t count,
             const std::function<OpRecord(std::uint32_t)>& make);
  /// Starts `out` now and its per-second accounting.
  void begin_seconds(PhaseSamples* out);
  /// Closes every second of `out` that ended by now (and by `end`).
  void close_seconds(PhaseSamples* out, Time end);
  /// Sleeps in poll until `due` (or IO), then runs what is due.
  void wait_until(Time due);

  const Workload& w_;
  std::uint64_t seed_;
  amcast::runtime::Executor ex_;
  std::unique_ptr<amcast::net::Transport> transport_;
  amcast::core::ConfigRegistry registry_;
  Checker checker_;
  std::unique_ptr<GenClient> client_;
  int timer_fd_ = -1;
  // Per-second accounting of the running phase.
  Time next_second_ = 0;
  std::int64_t last_completed_ = 0;
};

/// Checker for `cfg`'s replicas (partition order) and client.
Checker make_checker(const amcast::net::ClusterConfig& cfg, const Workload& w);

}  // namespace perfbench
