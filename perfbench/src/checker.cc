#include "checker.h"

#include <cstdio>
#include <cstring>

#include "common/strings.h"
#include "kvstore/partitioner.h"

namespace perfbench {

using amcast::kvstore::CommandResult;
using amcast::kvstore::Op;

namespace {

constexpr std::size_t kHeader = 16;

std::uint8_t filler(std::uint64_t key, std::uint64_t version, std::size_t i) {
  return std::uint8_t(key * 131 + version * 31 + i);
}

/// True when `data` is exactly encode_value(key, version, bytes).
bool value_matches(const std::vector<std::uint8_t>& data, std::uint64_t key,
                   std::uint64_t version, std::size_t bytes) {
  if (data.size() != bytes || bytes < kHeader) return false;
  std::uint64_t k = 0, v = 0;
  std::memcpy(&k, data.data(), 8);
  std::memcpy(&v, data.data() + 8, 8);
  if (k != key || v != version) return false;
  for (std::size_t i = kHeader; i < bytes; ++i) {
    if (data[i] != filler(key, version, i)) return false;
  }
  return true;
}

std::string describe(const std::vector<std::uint8_t>& data) {
  if (data.size() < kHeader) {
    return amcast::str_cat(std::to_string(data.size()), " bytes");
  }
  std::uint64_t k = 0, v = 0;
  std::memcpy(&k, data.data(), 8);
  std::memcpy(&v, data.data() + 8, 8);
  return amcast::str_cat("(key ", std::to_string(k), ", version ",
                         std::to_string(v), ", ", std::to_string(data.size()),
                         " bytes)");
}

}  // namespace

std::string key_name(std::uint64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%010llu", (unsigned long long)k);
  return buf;
}

std::vector<std::uint8_t> encode_value(std::uint64_t key,
                                       std::uint64_t version,
                                       std::size_t bytes) {
  std::vector<std::uint8_t> out(std::max(bytes, kHeader));
  std::memcpy(out.data(), &key, 8);
  std::memcpy(out.data() + 8, &version, 8);
  for (std::size_t i = kHeader; i < out.size(); ++i) {
    out[i] = filler(key, version, i);
  }
  return out;
}

std::uint64_t fnv1a64(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Checker::Checker(ProcessId client, std::uint64_t key_count,
                 std::size_t value_bytes,
                 const std::vector<std::vector<ProcessId>>& replicas)
    : client_(client),
      key_count_(key_count),
      value_bytes_(std::max(value_bytes, kHeader)) {
  auto part = amcast::kvstore::Partitioner::hash(int(replicas.size()));
  key_partition_.resize(key_count_);
  for (std::uint64_t k = 0; k < key_count_; ++k) {
    key_partition_[k] = std::uint8_t(part.locate(key_name(k)));
  }
  for (std::size_t p = 0; p < replicas.size(); ++p) {
    for (ProcessId id : replicas[p]) {
      ReplicaModel m;
      m.id = id;
      m.partition = int(p);
      m.version.assign(key_count_, 0);
      models_.push_back(std::move(m));
    }
  }
}

OpRecord& Checker::add(std::uint64_t seq, const OpRecord& op) {
  if (seq != ops_.size() + 1) {
    violation(amcast::str_cat("benchmark bug: op seq ", std::to_string(seq),
                              " registered out of order"));
  }
  ops_.push_back(op);
  return ops_.back();
}

int Checker::replica_index(ProcessId replica) const {
  for (std::size_t i = 0; i < models_.size(); ++i) {
    if (models_[i].id == replica) return int(i);
  }
  return -1;
}

std::uint64_t Checker::expected_mask(const OpRecord& op) const {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    if (op.op == Op::kScan ||
        models_[i].partition == key_partition_[op.key]) {
      mask |= std::uint64_t(1) << i;
    }
  }
  return mask;
}

void Checker::violation(std::string s) {
  // The first few are enough to diagnose; the count is what fails the run.
  if (violations_.size() < 1000) violations_.push_back(std::move(s));
}

bool Checker::on_result(ProcessId replica, const CommandResult& r) {
  int idx = replica_index(replica);
  if (idx < 0 || r.seq == 0 || r.seq > ops_.size()) {
    violation(amcast::str_cat("result for unknown op seq ",
                              std::to_string(r.seq), " from node ",
                              std::to_string(replica)));
    return false;
  }
  OpRecord& o = op(r.seq);
  ReplicaModel& m = models_[std::size_t(idx)];
  std::string who = amcast::str_cat("node ", std::to_string(replica),
                                    " op ", std::to_string(r.seq), ": ");
  if (r.thread != o.thread) {
    violation(who + "answered for the wrong session");
    return false;
  }
  std::uint64_t bit = std::uint64_t(1) << idx;
  bool again = (o.responders & bit) != 0;
  o.responders |= bit;
  if (!(expected_mask(o) & bit)) {
    violation(who + "answered by a replica of another partition");
    return true;
  }
  bool write = o.op == Op::kInsert || o.op == Op::kUpdate;
  // A replica filters a re-proposed write as a duplicate: it answers again
  // but does not apply it (nor chain it into its order hash).
  if (again && write) return true;

  std::uint64_t ids[3] = {std::uint64_t(client_) << 32 |
                              std::uint64_t(std::uint32_t(o.thread)),
                          r.seq, std::uint64_t(o.op)};
  m.order_hash = fnv1a64(m.order_hash, ids, sizeof(ids));
  std::string key = key_name(o.key);
  m.order_hash = fnv1a64(m.order_hash, key.data(), key.size());
  ++m.applied;

  switch (o.op) {
    case Op::kRead: {
      std::uint64_t v = m.version[o.key];
      if (v == 0) {
        if (r.ok) violation(who + "read of an absent key succeeded");
      } else if (!r.ok ||
                 !value_matches(r.data, o.key, v, value_bytes_)) {
        violation(amcast::str_cat(who, o.readback ? "read-back" : "read",
                                  " of key ", std::to_string(o.key),
                                  " returned ", describe(r.data),
                                  ", model has version ", std::to_string(v)));
      }
      break;
    }
    case Op::kScan: {
      std::int64_t expect = 0;
      for (std::uint32_t k = o.key; k <= o.end_key && k < key_count_; ++k) {
        if (key_partition_[k] == m.partition && m.version[k] != 0) ++expect;
      }
      if (!r.ok || r.scan_hits != expect) {
        violation(amcast::str_cat(who, "scan [", std::to_string(o.key), ", ",
                                  std::to_string(o.end_key), "] hit ",
                                  std::to_string(r.scan_hits), ", expected ",
                                  std::to_string(expect)));
      }
      break;
    }
    case Op::kInsert:
      if (!r.ok) violation(who + "insert failed");
      m.version[o.key] = r.seq;
      break;
    case Op::kUpdate:
      if (r.ok != (m.version[o.key] != 0)) {
        violation(who + "update result disagrees with key presence");
      }
      if (r.ok) m.version[o.key] = r.seq;
      break;
    case Op::kDelete:
      violation(who + "benchmark sends no deletes");
      break;
  }
  return true;
}

std::uint64_t Checker::store_hash(const ReplicaModel& m) const {
  // amcast_noded hashes its store tree in key order: key bytes, then value
  // bytes. Zero-padded key names sort like their indexes.
  std::uint64_t h = kFnvBasis;
  std::vector<std::uint8_t> value;
  for (std::uint64_t k = 0; k < key_count_; ++k) {
    if (key_partition_[k] != m.partition || m.version[k] == 0) continue;
    std::string key = key_name(k);
    value = encode_value(k, m.version[k], value_bytes_);
    h = fnv1a64(h, key.data(), key.size());
    h = fnv1a64(h, value.data(), value.size());
  }
  return h;
}

void Checker::finish(const std::vector<FinalReport>& finals) {
  // Every op is answered by all of its replicas or by none (never
  // delivered: the generator counts it as failed).
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const OpRecord& o = ops_[i];
    if (o.responders != 0 && o.responders != expected_mask(o)) {
      violation(amcast::str_cat("op ", std::to_string(i + 1),
                                " answered by only some of its replicas"));
    }
  }
  // Agreement within each partition, then rebuilt-vs-reported hashes.
  std::vector<std::uint64_t> store(models_.size(), 0);
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const ReplicaModel& m = models_[i];
    const ReplicaModel* first = nullptr;
    for (std::size_t j = 0; j < i; ++j) {
      if (models_[j].partition == m.partition) {
        first = &models_[j];
        store[i] = store[j];
        break;
      }
    }
    if (first != nullptr) {
      if (first->order_hash != m.order_hash || first->applied != m.applied) {
        violation(amcast::str_cat("nodes ", std::to_string(first->id), " and ",
                                  std::to_string(m.id),
                                  " answered in different orders"));
      }
      if (first->version != m.version) {
        violation(amcast::str_cat("nodes ", std::to_string(first->id), " and ",
                                  std::to_string(m.id),
                                  " end with different stores"));
        store[i] = store_hash(m);
      }
    } else {
      store[i] = store_hash(m);
    }
    const FinalReport* f = nullptr;
    for (const FinalReport& r : finals) {
      if (r.node == m.id) f = &r;
    }
    if (f == nullptr) {
      violation(amcast::str_cat("no FINAL report from node ",
                                std::to_string(m.id)));
      continue;
    }
    if (f->applied != m.applied || f->order_hash != m.order_hash) {
      violation(amcast::str_cat("node ", std::to_string(m.id),
                                " FINAL order (", std::to_string(f->applied),
                                " applied) differs from its response stream (",
                                std::to_string(m.applied), ")"));
    }
    if (f->store_hash != store[i]) {
      violation(amcast::str_cat("node ", std::to_string(m.id),
                                " FINAL store hash differs from the model"));
    }
  }
}

// --- self-test --------------------------------------------------------------

namespace {

struct Sent {
  std::uint64_t seq;
  OpRecord op;
};

/// One partition of three replicas over four keys, 32-byte values.
std::vector<Sent> self_test_ops() {
  std::vector<Sent> ops;
  std::uint64_t seq = 0;
  for (std::uint32_t k = 0; k < 4; ++k) {
    ops.push_back({++seq, {Op::kInsert, k, 0, 0, false, 0}});  // 1..4
  }
  ops.push_back({++seq, {Op::kUpdate, 1, 0, 1, false, 0}});  // 5
  ops.push_back({++seq, {Op::kRead, 1, 0, 2, false, 0}});    // 6
  ops.push_back({++seq, {Op::kUpdate, 2, 0, 3, false, 0}});  // 7
  ops.push_back({++seq, {Op::kRead, 2, 0, 4, false, 0}});    // 8
  ops.push_back({++seq, {Op::kScan, 0, 3, 5, false, 0}});    // 9
  ops.push_back({++seq, {Op::kRead, 3, 0, 6, true, 0}});     // 10
  return ops;
}

/// The correct result of `s` against a store whose latest versions are
/// `version` (updated in place for writes).
CommandResult clean_result(const Sent& s, std::vector<std::uint64_t>& version) {
  CommandResult r;
  r.seq = s.seq;
  r.thread = s.op.thread;
  r.ok = true;
  switch (s.op.op) {
    case Op::kRead:
      r.data = encode_value(s.op.key, version[s.op.key], 32);
      r.payload_bytes = r.data.size();
      break;
    case Op::kScan:
      r.scan_hits = std::int64_t(s.op.end_key - s.op.key + 1);
      break;
    default:
      version[s.op.key] = s.seq;
      break;
  }
  return r;
}

enum class Fault { kNone, kStaleRead, kSwapped, kOtherKey, kScanCount };

}  // namespace

int checker_self_test() {
  // The FINAL lines a correct cluster prints for this scenario: rebuilt by
  // hand from the op list (order hash chain and store hash).
  std::vector<FinalReport> finals;
  {
    std::vector<std::uint64_t> version(4, 0);
    std::uint64_t order = kFnvBasis;
    for (const Sent& s : self_test_ops()) {
      std::uint64_t idw[3] = {std::uint64_t(9) << 32 |
                                  std::uint64_t(std::uint32_t(s.op.thread)),
                              s.seq, std::uint64_t(s.op.op)};
      order = fnv1a64(order, idw, sizeof(idw));
      std::string key = key_name(s.op.key);
      order = fnv1a64(order, key.data(), key.size());
      if (s.op.op == Op::kInsert || s.op.op == Op::kUpdate) {
        version[s.op.key] = s.seq;
      }
    }
    std::uint64_t store = kFnvBasis;
    for (std::uint64_t k = 0; k < 4; ++k) {
      std::string key = key_name(k);
      auto v = encode_value(k, version[k], 32);
      store = fnv1a64(store, key.data(), key.size());
      store = fnv1a64(store, v.data(), v.size());
    }
    for (ProcessId id : {0, 1, 2}) {
      finals.push_back({id, std::int64_t(self_test_ops().size()), order,
                        store});
    }
  }

  struct Case {
    const char* name;
    Fault fault;
  };
  const Case cases[] = {{"clean stream", Fault::kNone},
                        {"stale read", Fault::kStaleRead},
                        {"two ops swapped on one replica", Fault::kSwapped},
                        {"read returns another key's bytes", Fault::kOtherKey},
                        {"scan hit count off by one", Fault::kScanCount}};
  int wrong = 0;
  for (const Case& k : cases) {
    const std::vector<ProcessId> ids = {0, 1, 2};
    Checker c(/*client=*/9, 4, 32, {ids});
    std::vector<Sent> ops = self_test_ops();
    for (const Sent& s : ops) c.add(s.seq, s.op);
    for (ProcessId id : ids) {
      std::vector<Sent> order = ops;
      if (k.fault == Fault::kSwapped && id == 2) std::swap(order[4], order[6]);
      std::vector<std::uint64_t> version(4, 0);
      for (const Sent& s : order) {
        CommandResult r = clean_result(s, version);
        if (k.fault == Fault::kStaleRead && id == 1 && s.seq == 6) {
          r.data = encode_value(1, 2, 32);  // the preload, not update 5
        }
        if (k.fault == Fault::kOtherKey && id == 0 && s.seq == 6) {
          r.data = encode_value(2, version[2], 32);
        }
        if (k.fault == Fault::kScanCount && id == 1 && s.seq == 9) {
          ++r.scan_hits;
        }
        c.on_result(id, r);
      }
    }
    c.finish(finals);
    std::size_t found = c.violations().size();
    bool ok = k.fault == Fault::kNone ? found == 0 : found > 0;
    if (!ok) ++wrong;
    std::fprintf(stderr, "checker self-test: %-34s %s (%zu violation%s)%s%s\n",
                 k.name, ok ? "ok" : "WRONG", found, found == 1 ? "" : "s",
                 found > 0 ? ": " : "",
                 found > 0 ? c.violations()[0].c_str() : "");
  }
  return wrong;
}

}  // namespace perfbench
