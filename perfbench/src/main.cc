// mrpbench — runs one workload of the repository benchmark (see
// ../README.md).
//
//   mrpbench --workload NAME --seed N --seconds S --trace 0|1
//            --noded PATH --work-dir DIR
//   mrpbench --selftest
//
// --trace 0 drives live amcast_noded clusters and prints the end-to-end
// metrics; --trace 1 hosts the same replicas inside this process with
// layer hooks and prints the per-layer metrics. Both check every value
// the cluster returns (checker.h). The last stdout line is one JSON object
// {correct, attempted, failed, metrics}; a summary goes to stderr.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "cluster.h"
#include "common/strings.h"
#include "gen.h"
#include "net/wire.h"
#include "traced.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace duration = amcast::duration;

// The three workloads. Rates sit well below each cluster's closed-loop
// peak on a quiet 4-core host, so the open loop measures latency, not
// queueing.
const Workload kWorkloads[] = {
    [] {
      Workload w;
      w.name = "ring3_read";
      w.write = 0.10;
      w.value_bytes = 128;
      w.keys = 10000;
      w.zipfian = true;
      w.open_rate = 10000;
      return w;
    }(),
    [] {
      Workload w;
      w.name = "ring3_write4k";
      w.write = 0.90;
      w.value_bytes = 4096;
      w.keys = 20000;
      w.open_rate = 4000;
      return w;
    }(),
    [] {
      Workload w;
      w.name = "global2_sharded";
      w.partitions = 2;
      w.global_ring = true;
      w.colocated_threads = 2;
      w.lambda = 20000;
      w.delta_ms = 5;
      w.write = 0.50;
      w.value_bytes = 128;
      w.keys = 10000;
      w.open_rate = 4000;
      // The daemon's three threads (two shards and the network thread)
      // share one CPU, so the closed loop saturates it. Spread over idle
      // CPUs they wake each other for every hand-off and the cluster stops
      // at ~32k ops/s with every CPU part idle; its CPU per op then follows
      // the host's load (26-40 us in runs of the same code), against
      // 21-24 us confined (README.md, "Settings").
      w.daemon_cpus = 1;
      w.closed_outstanding = 256;
      return w;
    }(),
};

constexpr int kOutstanding = 64;    ///< preload, scans and read-back
constexpr double kTimeoutS = 30;    ///< any single wait of a run
/// Set-ups repeat for this long (at least kMinSetups times); setup_s is
/// their mean.
constexpr double kSetupBudgetS = 3;
constexpr int kMinSetups = 3;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cputime_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<Time>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  return double(v[std::max<std::size_t>(rank, 1) - 1]);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Result {
  bool ok = true;  ///< every phase ran to its end and every check passed
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< stderr summary
};

void fail(Result* r, const std::string& why) {
  r->ok = false;
  r->notes.push_back("FAIL: " + why);
}

Time deadline(Gen& g) { return g.now() + Time(kTimeoutS * 1e9); }

std::string join(const std::vector<std::int64_t>& v) {
  std::string s;
  for (std::int64_t x : v) s += amcast::str_cat(" ", std::to_string(x));
  return s;
}

/// The open loop's latency summary (stderr only) and the generator's
/// lateness against the read p50. Returns the read p50 (ns).
///
/// Latencies are not gated: on this kind of shared host they follow the
/// load of other tenants, not the program (README.md, "Left out").
double latency_summary(PhaseSamples& open, Result* r) {
  std::vector<Time>& reads = open.read;
  std::vector<Time>& writes = open.write;
  double read_p50 = quantile(reads, 0.50);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "open loop: read p1 %.3f ms, p50 %.3f ms, p90 %.3f ms, "
                "p99 %.3f ms; write p1 %.3f ms, p50 %.3f ms, p90 %.3f ms, "
                "p99 %.3f ms",
                quantile(reads, 0.01) / 1e6, read_p50 / 1e6,
                quantile(reads, 0.90) / 1e6, quantile(reads, 0.99) / 1e6,
                quantile(writes, 0.01) / 1e6, quantile(writes, 0.50) / 1e6,
                quantile(writes, 0.90) / 1e6, quantile(writes, 0.99) / 1e6);
  r->notes.push_back(buf);
  std::int64_t late = 0;
  for (Time t : open.lateness) late += double(t) > read_p50 ? 1 : 0;
  std::snprintf(buf, sizeof(buf),
                "open loop: %lld ops (%zu reads, %zu writes); "
                "generator lateness p50 %.1f us, p99 %.1f us; %lld ops "
                "later than read p50",
                (long long)open.issued, open.read.size(), open.write.size(),
                quantile(open.lateness, 0.50) / 1e3,
                quantile(open.lateness, 0.99) / 1e3, (long long)late);
  r->notes.push_back(buf);
  return read_p50;
}

void finish_checks(Gen& gen, const std::vector<FinalReport>& finals,
                   Result* r) {
  gen.checker().finish(finals);
  r->attempted = std::int64_t(gen.checker().ops());
  r->failed = gen.client().awaiting_first();
  for (const std::string& v : gen.checker().violations()) {
    fail(r, "violation: " + v);
    if (r->notes.size() > 20) break;
  }
  if (gen.client().repeats() > 0) {
    r->notes.push_back(amcast::str_cat(
        std::to_string(gen.client().repeats()),
        " repeated responses (answers to re-proposed values)"));
  }
  if (!gen.checker().violations().empty()) {
    r->notes.push_back(std::to_string(gen.checker().violations().size()) +
                       " violation(s)");
  }
}

/// The points of a run at which the modes take their readings.
enum class Phase { kOpenBegin, kOpenEnd, kClosedBegin, kClosedEnd };

/// The phases after set-up, shared by both modes: preload, scan check,
/// open loop, closed loop, drain and read-back. `on_phase` is called at
/// each Phase. Returns false when a phase could not finish.
bool run_phases(Gen& gen, const Workload& w, double seconds,
                PhaseSamples* open, PhaseSamples* closed,
                const std::function<void(Phase)>& on_phase, Result* r) {
  if (!gen.preload(kOutstanding, deadline(gen)) || !gen.drain(deadline(gen))) {
    fail(r, "preload did not finish");
    return false;
  }
  // Scans are checked here, on the preloaded store, and kept out of the
  // timed phases: global-ring values wait behind the partition rings for a
  // time that depends on their batching history (CHANGES.md, FOUND).
  if (w.global_ring &&
      (!gen.scan_all(kOutstanding, deadline(gen)) || !gen.drain(deadline(gen)))) {
    fail(r, "scans did not finish");
    return false;
  }
  // Whole seconds, a third of the run for the open loop and the rest for
  // the closed loop, whose CPU readings are the gated metrics.
  std::int64_t whole = std::max<std::int64_t>(2, std::int64_t(seconds));
  Duration open_len = duration::seconds(std::max<std::int64_t>(1, whole / 3));
  Duration closed_len = duration::seconds(whole) - open_len;
  on_phase(Phase::kOpenBegin);
  gen.open_loop(open_len, open);
  gen.pump_until([&] { return gen.client().awaiting_first() == 0; },
                 deadline(gen));
  on_phase(Phase::kOpenEnd);
  on_phase(Phase::kClosedBegin);
  gen.closed_loop(w.closed_outstanding, closed_len, closed);
  on_phase(Phase::kClosedEnd);
  std::int64_t done = 0;
  for (std::int64_t c : closed->completions) done += c;
  std::int64_t secs = std::max<std::size_t>(1, closed->completions.size());
  r->notes.push_back(amcast::str_cat(
      "closed loop: ", std::to_string(done / secs),
      " ops/s wall clock; completions per second:", join(closed->completions)));
  gen.pump_until([&] { return gen.client().awaiting_first() == 0; },
                 deadline(gen));
  if (!gen.drain(deadline(gen)) ||
      !gen.read_back(kOutstanding, deadline(gen)) ||
      !gen.drain(deadline(gen))) {
    fail(r, "ops still unanswered after the drain");
  }
  return true;
}

Result run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                      const std::string& noded, const std::string& work) {
  Result r;
  std::vector<double> setups;
  std::unique_ptr<Gen> gen;
  std::unique_ptr<Daemons> daemons;
  std::string error;
  // Workload::daemon_cpus: the daemons get the first CPUs, this (the
  // generator's) thread the rest.
  cpu_set_t daemon_cpus, gen_cpus;
  if (w.daemon_cpus > 0) {
    if (!split_cpus(w.daemon_cpus, &daemon_cpus, &gen_cpus)) {
      fail(&r, "cannot read the CPU affinity");
      return r;
    }
    ::sched_setaffinity(0, sizeof(gen_cpus), &gen_cpus);
  }
  std::int64_t setup_start = steady_ns();
  for (int i = 0;; ++i) {
    std::string dir = work + "/cluster" + std::to_string(i);
    std::filesystem::create_directories(dir);
    amcast::net::ClusterConfig cfg;
    if (!make_cluster_config(w, dir + "/cluster.json", &cfg, &error)) {
      fail(&r, error);
      return r;
    }
    gen = std::make_unique<Gen>(cfg, w, seed);
    if (!gen->listen(&error)) {
      fail(&r, error);
      return r;
    }
    daemons = std::make_unique<Daemons>();
    std::int64_t t0 = steady_ns();
    if (!daemons->start(noded, dir + "/cluster.json", cfg, w, dir,
                        w.daemon_cpus > 0 ? &daemon_cpus : nullptr, &error) ||
        !daemons->wait_ready(kTimeoutS, &error)) {
      fail(&r, error + "\n" + daemons->log_tails());
      return r;
    }
    if (!gen->probe_partitions(deadline(*gen))) {
      fail(&r, "set-up probe unanswered\n" + daemons->log_tails());
      return r;
    }
    setups.push_back(double(steady_ns() - t0) / 1e9);
    // The last cluster set up is the one measured.
    if (i + 1 >= kMinSetups &&
        double(steady_ns() - setup_start) / 1e9 >= kSetupBudgetS) {
      break;
    }
    if (!daemons->stop(kTimeoutS, nullptr, &error)) {
      fail(&r, error);
      return r;
    }
    std::filesystem::remove_all(dir);
  }

  PhaseSamples open, closed;
  Daemons* d = daemons.get();
  // RSS is read once the preload (and the scan check) is stored: that
  // state is fixed by the workload, whereas the loops store as many values
  // as the host lets the cluster complete.
  std::int64_t hwm_kib = 0;
  std::map<pid_t, std::int64_t> cpu0, cpu1;
  std::int64_t done0 = 0, done1 = 0, gen_cpu0 = 0, gen_cpu1 = 0;
  bool ran = run_phases(*gen, w, seconds, &open, &closed, [&](Phase p) {
    if (p == Phase::kOpenBegin) hwm_kib = d->hwm_kib();
    if (p == Phase::kClosedBegin) {
      cpu0 = d->thread_cpu_ns();
      done0 = gen->client().completed();
      gen_cpu0 = thread_cputime_ns();
    }
    if (p == Phase::kClosedEnd) {
      gen_cpu1 = thread_cputime_ns();
      cpu1 = d->thread_cpu_ns();
      done1 = gen->client().completed();
    }
  }, &r);
  std::vector<FinalReport> finals;
  if (!daemons->stop(kTimeoutS, &finals, &error)) fail(&r, error);
  finish_checks(*gen, finals, &r);
  if (!r.ok) {
    // Leave what explains the failure: the client's transport counters and
    // the daemons' own output (their FINAL lines among it).
    amcast::net::Transport::Stats ts = gen->transport().stats();
    r.notes.push_back(amcast::str_cat(
        "client transport: frames sent ", std::to_string(ts.frames_sent),
        ", received ", std::to_string(ts.frames_received), ", dropped ",
        std::to_string(ts.frames_dropped), ", decode errors ",
        std::to_string(ts.decode_errors), ", connects ",
        std::to_string(ts.connects)));
    r.notes.push_back(daemons->log_tails());
  }
  if (!ran) return r;

  latency_summary(open, &r);
  // The gated costs come from the closed loop, which keeps the cluster
  // saturated, so ring instances carry near-full batches whatever the
  // host's speed. Thread CPU time leaves out the time a thread waited for
  // a CPU; the wall clock does not (README.md, "Run shape").
  double ops = double(std::max<std::int64_t>(1, done1 - done0));
  std::int64_t total_ns = 0, busiest_ns = 1;
  for (const auto& [tid, ns] : cpu1) {
    auto it = cpu0.find(tid);
    std::int64_t used = ns - (it == cpu0.end() ? 0 : it->second);
    total_ns += used;
    busiest_ns = std::max(busiest_ns, used);
  }
  r.metrics.push_back({"cpu_us_per_op", double(total_ns) / 1e3 / ops, "us"});
  r.metrics.push_back(
      {"capacity_ops_s", ops / (double(busiest_ns) / 1e9), "1/s"});
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "closed loop: %.0f ops; daemons used %.2f CPU-s, their "
                "busiest thread %.2f CPU-s, the generator %.2f CPU-s of %zu s",
                ops, double(total_ns) / 1e9, double(busiest_ns) / 1e9,
                double(gen_cpu1 - gen_cpu0) / 1e9, closed.completions.size());
  r.notes.push_back(buf);
  r.metrics.push_back({"rss_mb", double(hwm_kib) / 1024.0, "MB"});
  // Set-up time is bimodal (see README.md), so the mean, not the median,
  // is the steady summary of a run's set-ups.
  double mean = 0;
  for (double v : setups) mean += v / double(setups.size());
  r.metrics.push_back({"setup_s", mean, "s"});
  std::string s = "set-up samples (s):";
  for (double v : setups) s += amcast::str_cat(" ", std::to_string(v));
  r.notes.push_back(s);
  return r;
}

Result run_traced(const Workload& w, std::uint64_t seed, double seconds,
                  const std::string& work) {
  Result r;
  std::string error;
  amcast::net::ClusterConfig cfg;
  if (!make_cluster_config(w, work + "/cluster.json", &cfg, &error)) {
    fail(&r, error);
    return r;
  }
  TracedCluster tc(cfg, w);
  if (!tc.start(&error)) {
    fail(&r, error);
    return r;
  }
  Gen gen(cfg, w, seed);
  gen.executor().set_router(tc.client_router(gen.transport()));
  if (!gen.listen(&error)) {
    fail(&r, error);
    return r;
  }
  if (!gen.probe_partitions(deadline(gen))) {
    fail(&r, "set-up probe unanswered");
    return r;
  }

  struct GenSample {
    std::int64_t completed, issued, responses, encode_ns, cpu_ns;
  };
  auto gen_sample = [&] {
    GenClient& c = gen.client();
    return GenSample{c.completed(), c.issued(), c.responses(), c.encode_ns(),
                     thread_cputime_ns()};
  };
  LayerSample l0, l1;
  GenSample g0{}, g1{};
  PhaseSamples open, closed;
  // Stage tracing samples every value of the open loop, at a fixed rate;
  // the layer counters bracket the closed loop, like the gated costs.
  auto measure = [&](Phase p) {
    switch (p) {
      case Phase::kOpenBegin: tc.set_tracing(true); break;
      case Phase::kOpenEnd: tc.set_tracing(false); break;
      case Phase::kClosedBegin:
        l0 = tc.sample();
        g0 = gen_sample();
        break;
      case Phase::kClosedEnd:
        g1 = gen_sample();
        l1 = tc.sample();
        break;
    }
  };
  bool ran = run_phases(gen, w, seconds, &open, &closed, measure, &r);
  std::vector<FinalReport> finals;
  tc.stop(&finals);
  finish_checks(gen, finals, &r);
  if (!ran) return r;

  double read_p50 = latency_summary(open, &r);

  double ops = double(std::max<std::int64_t>(1, g1.completed - g0.completed));
  auto per_op = [&](std::int64_t a, std::int64_t b) { return double(b - a) / ops; };
  std::int64_t late = 0;
  for (Time t : open.lateness) late += double(t) > read_p50 ? 1 : 0;
  std::vector<Time> lat = open.lateness;
  auto add = [&](const char* name, double v, const char* unit) {
    r.metrics.push_back({name, v, unit});
  };
  add("gen.lateness_p50_us", quantile(lat, 0.50) / 1e3, "us");
  add("gen.lateness_p99_us", quantile(lat, 0.99) / 1e3, "us");
  add("gen.late_ops_per_kop",
      1e3 * double(late) / double(std::max<std::size_t>(1, open.lateness.size())),
      "count");
  add("gen.cpu_us_per_op", per_op(g0.cpu_ns, g1.cpu_ns) / 1e3, "us");
  add("gen.responses_per_op", per_op(g0.responses, g1.responses), "count");
  add("net.frames_per_op", per_op(l0.frames, l1.frames), "count");
  add("net.bytes_per_op", per_op(l0.bytes, l1.bytes), "B");
  add("net.send_us_per_frame",
      double(l1.net_ns - l0.net_ns) / 1e3 /
          double(std::max<std::int64_t>(1, l1.net_sends - l0.net_sends)),
      "us");
  add("ringpaxos.handle_us_per_op",
      per_op(l0.ringpaxos_ns, l1.ringpaxos_ns) / 1e3, "us");
  std::int64_t instances =
      (l1.decided - l1.skipped) - (l0.decided - l0.skipped);
  add("ringpaxos.values_per_instance",
      double(l1.values - l0.values) /
          double(std::max<std::int64_t>(1, instances)),
      "count");
  std::uint64_t traces = 0;
  add("ringpaxos.queue_ms", tc.stage_p50_ms("queue", &traces), "ms");
  add("ringpaxos.ring_ms", tc.stage_p50_ms("ring", &traces), "ms");
  add("ringpaxos.retries_per_kop", 1e3 * per_op(l0.retries, l1.retries),
      "count");
  add("core.merge_us_per_op", per_op(l0.core_ns, l1.core_ns) / 1e3, "us");
  add("core.merge_ms", tc.stage_p50_ms("merge", &traces), "ms");
  add("kvstore.apply_us_per_op", per_op(l0.kvstore_ns, l1.kvstore_ns) / 1e3,
      "us");
  add("kvstore.encode_ns_per_op",
      double(g1.encode_ns - g0.encode_ns) /
          double(std::max<std::int64_t>(1, g1.issued - g0.issued)),
      "ns");
  add("runtime.ctx_switches_per_op", per_op(l0.ctx_switches, l1.ctx_switches),
      "count");
  add("runtime.coord_cpu_us_per_op",
      per_op(l0.coord_cpu_ns, l1.coord_cpu_ns) / 1e3, "us");
  add("runtime.lane_drops", double(l1.lane_drops - l0.lane_drops), "count");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "traced: %.0f closed-loop ops measured, %llu stage traces "
                "from the open loop",
                ops, (unsigned long long)traces);
  r.notes.push_back(buf);
  return r;
}

void print_result(const Result& r) {
  for (const std::string& n : r.notes) std::fprintf(stderr, "%s\n", n.c_str());
  std::string js = "{\"correct\": ";
  js += r.ok ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(r.attempted);
  js += ", \"failed\": " + std::to_string(r.failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", r.metrics[i].name.c_str(), r.metrics[i].value,
                  r.metrics[i].unit);
    js += buf;
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: mrpbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --noded PATH --work-dir DIR\n"
               "       mrpbench --selftest\n");
  return 64;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : kWorkloads) out.push_back(w.name);
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a] = argv[++i];
    } else {
      return usage();
    }
  }
  if (selftest) return checker_self_test() == 0 ? 0 : 1;
  const Workload* w = find_workload(args["--workload"]);
  if (w == nullptr || !args.count("--seed") || !args.count("--seconds") ||
      !args.count("--trace") || !args.count("--work-dir") ||
      (args["--trace"] == "0" && !args.count("--noded"))) {
    std::string names;
    for (const std::string& n : workload_names()) names += " " + n;
    std::fprintf(stderr, "mrpbench: workloads:%s\n", names.c_str());
    return usage();
  }
  std::uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  bool trace = args["--trace"] == "1";
  if (seconds <= 0) return usage();
  if (checker_self_test() != 0) {
    std::fprintf(stderr, "mrpbench: the checker self-test failed\n");
    return 3;
  }
  amcast::net::set_snapshot_state_codec(amcast::net::kv_snapshot_state_codec());

  // A fresh data directory per run, removed afterwards.
  std::string work = args["--work-dir"];
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  std::filesystem::create_directories(work, ec);
  Result r = trace ? run_traced(*w, seed, seconds, work)
                   : run_end_to_end(*w, seed, seconds, args["--noded"], work);
  std::filesystem::remove_all(work, ec);
  print_result(r);
  return r.ok ? 0 : 1;
}
