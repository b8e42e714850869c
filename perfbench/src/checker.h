// Output checking for the benchmark, independent of the program's own
// bookkeeping.
//
// Every value the benchmark writes encodes (key index, version): the first
// 16 bytes are the two little-endian u64s and the rest is a filler derived
// from both, so a read's returned bytes name exactly which write produced
// them. The version of a write is its command sequence number, which is
// unique per run.
//
// The checker replays each replica's response stream (FIFO per connection,
// so it follows that replica's apply order) into a model of that replica's
// store and checks:
//   1. every read returns the model's value for that key at that point;
//   2. replicas of a partition apply identical orders, and each replica's
//      FINAL order/store hashes equal the ones rebuilt from its stream;
//   3. each scan's hit count equals the number of preloaded keys of the
//      answering replica's partition inside the range (so the sum over
//      partitions is the number of keys in the range);
//   4. the final read-back of every key returns the model's final value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "kvstore/command.h"

namespace perfbench {

using amcast::ProcessId;

std::string key_name(std::uint64_t k);
std::vector<std::uint8_t> encode_value(std::uint64_t key,
                                       std::uint64_t version,
                                       std::size_t bytes);

/// FNV-1a 64, the hash amcast_noded chains its FINAL order/store hashes
/// with.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a64(std::uint64_t h, const void* data, std::size_t n);

/// What the benchmark sent: one command per multicast value.
struct OpRecord {
  amcast::kvstore::Op op = amcast::kvstore::Op::kRead;
  std::uint32_t key = 0;       ///< key index (scan: first key)
  std::uint32_t end_key = 0;   ///< scan: last key, inclusive
  std::int32_t thread = 0;     ///< client session
  bool readback = false;       ///< part of the final read-back
  std::uint64_t responders = 0;  ///< bitmask of replicas that answered
};

/// A replica's FINAL line.
struct FinalReport {
  ProcessId node = amcast::kInvalidProcess;
  std::int64_t applied = 0;
  std::uint64_t order_hash = 0;
  std::uint64_t store_hash = 0;
};

class Checker {
 public:
  /// `replicas[p]` lists the replica ids of partition p. Keys are
  /// "user%010u" for indexes [0, key_count); values are `value_bytes` long.
  Checker(ProcessId client, std::uint64_t key_count, std::size_t value_bytes,
          const std::vector<std::vector<ProcessId>>& replicas);

  /// Registers the op sent with sequence number `seq` (seqs start at 1 and
  /// are dense). Returns the record, which stays valid until the next add.
  OpRecord& add(std::uint64_t seq, const OpRecord& op);
  OpRecord& op(std::uint64_t seq) { return ops_[std::size_t(seq - 1)]; }
  std::uint64_t ops() const { return ops_.size(); }

  /// Bit of `replica` in OpRecord::responders; -1 for an unknown sender.
  int replica_index(ProcessId replica) const;
  /// Responders an op needs before it is complete everywhere.
  std::uint64_t expected_mask(const OpRecord& op) const;
  int partition_of_key(std::uint32_t key) const {
    return key_partition_[key];
  }

  /// One result from `replica`, in that replica's stream order. Returns
  /// false when the result names no op this run sent.
  bool on_result(ProcessId replica, const amcast::kvstore::CommandResult& r);

  /// Rebuilt-vs-reported comparison and cross-replica agreement. Call once
  /// every op has been answered by every replica and the FINAL lines are in.
  void finish(const std::vector<FinalReport>& finals);

  const std::vector<std::string>& violations() const { return violations_; }

 private:
  struct ReplicaModel {
    ProcessId id = amcast::kInvalidProcess;
    int partition = 0;
    std::vector<std::uint64_t> version;  ///< per key; 0 = absent
    std::uint64_t order_hash = kFnvBasis;
    std::int64_t applied = 0;
  };

  void violation(std::string s);
  std::uint64_t store_hash(const ReplicaModel& m) const;

  ProcessId client_;
  std::uint64_t key_count_;
  std::size_t value_bytes_;
  std::vector<ReplicaModel> models_;
  std::vector<std::uint8_t> key_partition_;
  std::vector<OpRecord> ops_;
  std::vector<std::string> violations_;
};

/// Feeds the checker made-up streams: a clean one must pass, and each
/// injected fault (stale read, swapped order on one replica, another key's
/// bytes, scan count off by one) must be reported. Returns the number of
/// cases that behaved wrongly and prints one line per case to stderr.
int checker_self_test();

}  // namespace perfbench
