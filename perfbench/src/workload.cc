#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "alloc_count.h"
#include "common/metrics.h"
#include "common/sync.h"
#include "common/trace.h"
#include "layer_timers.h"
#include "kv_servant.h"
#include "spans.h"

namespace perfbench {
namespace {

using cqos::Bytes;
using cqos::Duration;
using cqos::TimePoint;
using cqos::Value;
using cqos::ValueList;

const Duration kWarmup = cqos::ms(1000);
constexpr int kSetups = 41;
constexpr std::size_t kInputsPerClient = 64;
// A measured window is cut into slices; the end-to-end metrics are medians
// over slices, so a burst of host noise moves one slice, not the result.
const Duration kSlice = cqos::ms(250);
// Latency samples kept per client and slice: a uniform reservoir sample of
// the slice's calls. The buffers are allocated and touched before the
// window starts, so peak RSS does not grow with the calls a run manages.
constexpr std::size_t kReservoir = 1024;
// Consecutive failed writes the reply check can still reason about (it
// tries every subset of them).
constexpr std::size_t kMaxUncertainWrites = 16;
// Traced calls are grouped by trace id with Tracer::spans_for(), one scan
// of the ring per id, so the traced window is capped in calls; the ring is
// sized so the capped window is never truncated.
constexpr std::size_t kMaxTracedCalls = 4000;
constexpr std::size_t kTraceCapacity = kMaxTracedCalls * 128;

// --- workloads ---------------------------------------------------------------

std::vector<WorkloadSpec> make_workloads() {
  using cqos::Side;
  using cqos::net::TransportKind;
  using cqos::sim::PlatformKind;
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w{"secured-corba-1k", PlatformKind::kCorba,
                   TransportKind::kTcp, 1, 2, OpKind::kBlob, 1024, {}, true};
    for (Side side : {Side::kClient, Side::kServer}) {
      w.qos.add(side, "des_privacy", {{"key", "0123456789abcdef"}})
          .add(side, "integrity",
               {{"key", "00112233445566778899aabbccddeeff"}});
    }
    out.push_back(std::move(w));
  }
  out.push_back({"plain-rmi-inproc", PlatformKind::kRmi, TransportKind::kSim,
                 1, 4, OpKind::kBlob, 16, {}, false});
  {
    WorkloadSpec w{"replicated-rmi-3", PlatformKind::kRmi, TransportKind::kTcp,
                   3, 2, OpKind::kCounter, 8, {}, false};
    w.qos.add(Side::kClient, "active_rep")
        .add(Side::kClient, "majority_vote")
        .add(Side::kServer, "total_order");
    out.push_back(std::move(w));
  }
  return out;
}

// --- one closed-loop client --------------------------------------------------

const Bytes kEmpty;

struct Client {
  std::unique_ptr<cqos::sim::ClientHandle> handle;
  std::string key;
  std::vector<Bytes> payloads;       // kBlob inputs
  std::vector<std::int64_t> amounts;  // kCounter inputs
  std::size_t cursor = 0;
  bool write_next = false;

  // What the servant must hold for this key. A write that threw may or may
  // not have been applied; it stays a candidate until the next read settles
  // which.
  const Bytes* blob = &kEmpty;
  std::vector<const Bytes*> blob_maybe;
  std::int64_t total = 0;
  std::vector<std::int64_t> add_maybe;

  // This window's tally, per slice.
  struct Slice {
    std::vector<float> lat_us = std::vector<float>(kReservoir);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::vector<Slice> slices;
  std::mt19937_64 pick;  // reservoir replacement choices
  std::vector<std::string> violations;
  std::vector<std::string> errors;
};

enum class Outcome { kOk, kThrew, kWrong };

void make_inputs(const WorkloadSpec& spec, std::uint64_t seed, int index,
                 Client& c) {
  c.key = "client" + std::to_string(index);
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL +
                      static_cast<std::uint64_t>(index) + 1);
  for (std::size_t i = 0; i < kInputsPerClient; ++i) {
    if (spec.ops == OpKind::kBlob) {
      Bytes b(spec.payload_bytes);
      for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
      c.payloads.push_back(std::move(b));
    } else {
      std::uniform_int_distribution<std::int64_t> amount(-1000000, 1000000);
      c.amounts.push_back(amount(rng));
    }
  }
}

ValueList write_params(const WorkloadSpec& spec, const Client& c,
                       std::size_t i) {
  if (spec.ops == OpKind::kBlob) {
    return {Value(c.key), Value(c.payloads[i % c.payloads.size()])};
  }
  return {Value(c.key), Value(c.amounts[i % c.amounts.size()])};
}

/// The candidate blob `got` matches, or null.
const Bytes* match_blob(const Client& c, const Bytes& got) {
  if (got == *c.blob) return c.blob;
  for (const Bytes* maybe : c.blob_maybe) {
    if (got == *maybe) return maybe;
  }
  return nullptr;
}

/// Whether `got` is the client's total plus `plus` plus some subset of the
/// adds that threw.
bool total_matches(const Client& c, std::int64_t got, std::int64_t plus) {
  const std::int64_t diff = got - (c.total + plus);
  if (diff == 0) return true;
  const std::size_t n = c.add_maybe.size();
  if (n > kMaxUncertainWrites) return false;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) sum += c.add_maybe[i];
    }
    if (sum == diff) return true;
  }
  return false;
}

Outcome wrong(Client& c, std::string what) {
  if (c.violations.size() < 8) c.violations.push_back(c.key + ": " + what);
  return Outcome::kWrong;
}

Outcome check_blob(Client& c, const Value& got) {
  if (got.type() != Value::Type::kBytes) {
    return wrong(c, "get returned no bytes");
  }
  const Bytes* match = match_blob(c, got.as_bytes());
  if (match == nullptr) {
    return wrong(c, "get returned " + std::to_string(got.as_bytes().size()) +
                        " bytes that the client never put");
  }
  c.blob = match;
  c.blob_maybe.clear();
  return Outcome::kOk;
}

Outcome check_total(Client& c, const Value& got, std::int64_t plus,
                    const char* method) {
  if (got.type() != Value::Type::kI64) {
    return wrong(c, std::string(method) + " returned no integer");
  }
  if (!total_matches(c, got.as_i64(), plus)) {
    return wrong(c, std::string(method) + " returned " +
                        std::to_string(got.as_i64()) + ", expected " +
                        std::to_string(c.total + plus));
  }
  c.total = got.as_i64();
  c.add_maybe.clear();
  return Outcome::kOk;
}

/// One call: the next write or read of this client, with its reply checked.
Outcome step(const WorkloadSpec& spec, Client& c) {
  const bool write = c.write_next;
  c.write_next = !write;
  cqos::CqosStub& stub = c.handle->stub();
  const std::size_t i = c.cursor;
  try {
    if (spec.ops == OpKind::kBlob) {
      if (!write) return check_blob(c, stub.call("get", {Value(c.key)}));
      ++c.cursor;
      const Bytes& payload = c.payloads[i % c.payloads.size()];
      Value r;
      try {
        r = stub.call("put", write_params(spec, c, i));
      } catch (...) {
        c.blob_maybe.push_back(&payload);
        throw;
      }
      c.blob = &payload;
      c.blob_maybe.clear();
      if (!(r == Value(true))) return wrong(c, "put did not return true");
      return Outcome::kOk;
    }
    if (!write) {
      return check_total(c, stub.call("total", {Value(c.key)}), 0, "total");
    }
    ++c.cursor;
    const std::int64_t amount = c.amounts[i % c.amounts.size()];
    Value r;
    try {
      r = stub.call("add", write_params(spec, c, i));
    } catch (...) {
      c.add_maybe.push_back(amount);
      throw;
    }
    return check_total(c, r, amount, "add");
  } catch (const std::exception& e) {
    if (c.errors.size() < 4) c.errors.push_back(c.key + ": " + e.what());
    return Outcome::kThrew;
  }
}

// --- deployment --------------------------------------------------------------

struct Deployment {
  std::unique_ptr<cqos::sim::Cluster> cluster;
  // Declared after the cluster: client hosts shut down first.
  std::vector<Client> clients;

  KvServant& servant(int i) {
    return static_cast<KvServant&>(cluster->servant(i));
  }
};

/// Builds the deployment and makes every client's first call (a read of
/// its still-empty key), retrying until it succeeds.
std::unique_ptr<Deployment> deploy(const WorkloadSpec& spec,
                                   std::uint64_t seed) {
  cqos::sim::ClusterOptions o;
  o.platform = spec.platform;
  o.level = cqos::sim::InterceptionLevel::kFull;
  o.num_replicas = spec.replicas;
  o.qos = spec.qos;
  o.transport_kind = spec.transport;
  o.net = zero_latency_net();
  o.servant_factory = [] { return std::make_shared<KvServant>(); };

  auto d = std::make_unique<Deployment>();
  d->cluster = std::make_unique<cqos::sim::Cluster>(std::move(o));
  d->clients.resize(static_cast<std::size_t>(spec.clients));
  for (int i = 0; i < spec.clients; ++i) {
    Client& c = d->clients[static_cast<std::size_t>(i)];
    c.handle = d->cluster->make_client();
    c.pick.seed(seed + static_cast<std::uint64_t>(i));
    make_inputs(spec, seed, i, c);
  }
  for (Client& c : d->clients) {
    Outcome first = Outcome::kThrew;
    for (int attempt = 0; attempt < 100 && first == Outcome::kThrew;
         ++attempt) {
      c.write_next = false;
      first = step(spec, c);
      if (first == Outcome::kThrew) std::this_thread::sleep_for(cqos::ms(20));
    }
    if (first == Outcome::kThrew) {
      std::fprintf(stderr, "perfbench: %s: first call never succeeded: %s\n",
                   spec.name.c_str(),
                   c.errors.empty() ? "?" : c.errors.back().c_str());
      std::exit(1);
    }
    c.errors.clear();
  }
  return d;
}

/// Reads the servants once the run is over: replicas must agree, and every
/// client's key must hold what that client last wrote.
void check_final_state(const WorkloadSpec& spec, Deployment& d,
                       std::vector<std::string>& violations) {
  // Majority voting returns before the slowest replica has replied, and an
  // ordering multicast to a slow peer is retried for seconds; give the
  // replicas time to apply the last calls.
  const TimePoint waited_from = cqos::now();
  bool same = true;
  do {
    same = true;
    for (int r = 1; r < spec.replicas; ++r) {
      same = same && d.servant(r).blobs() == d.servant(0).blobs() &&
             d.servant(r).totals() == d.servant(0).totals();
    }
    if (!same) std::this_thread::sleep_for(cqos::ms(10));
  } while (!same && cqos::now() < waited_from + cqos::ms(10000));
  const double waited_s = cqos::to_us(cqos::now() - waited_from) * 1e-6;
  if (waited_s > 0.5) {
    std::fprintf(stderr, "perfbench: replicas %s after %.1f s\n",
                 same ? "agreed" : "still differ", waited_s);
  }
  if (!same) {
    std::string applied;
    for (int r = 0; r < spec.replicas; ++r) {
      if (r > 0) applied += '/';
      applied += std::to_string(d.servant(r).writes());
    }
    std::string suspected;
    for (const Client& c : d.clients) {
      cqos::ClientQosInterface& qos = c.handle->cactus_client()->qos();
      for (int r = 0; r < spec.replicas; ++r) {
        if (qos.server_status(r) == cqos::ServerStatus::kFailed) {
          suspected += " " + c.key + "->replica" + std::to_string(r);
        }
      }
    }
    violations.push_back("replicas hold different state (writes applied: " +
                         applied + "; marked failed by clients:" +
                         (suspected.empty() ? " none" : suspected) + ")");
  }

  const auto blobs = d.servant(0).blobs();
  const auto totals = d.servant(0).totals();
  for (const Client& c : d.clients) {
    if (spec.ops == OpKind::kBlob) {
      auto it = blobs.find(c.key);
      if (match_blob(c, it == blobs.end() ? kEmpty : it->second) == nullptr) {
        violations.push_back(c.key + ": final blob is not the last put");
      }
    } else {
      auto it = totals.find(c.key);
      if (!total_matches(c, it == totals.end() ? 0 : it->second, 0)) {
        violations.push_back(c.key + ": final total is not the sum of adds");
      }
    }
  }
}

// --- measurement -------------------------------------------------------------

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Sum of every net.drop.<reason> counter in the global registry.
std::uint64_t drop_count() {
  const std::string json = cqos::metrics::Registry::global().to_json();
  const std::size_t end = json.find("\"histograms\"");
  std::uint64_t total = 0;
  for (std::size_t pos = json.find("\"net.drop."); pos < end;
       pos = json.find("\"net.drop.", pos + 1)) {
    const std::size_t colon = json.find("\":", pos + 1);
    total += std::strtoull(json.c_str() + colon + 2, nullptr, 10);
  }
  return total;
}

struct Usage {
  TimePoint t{};
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t vol_ctx_switches = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t encodes = 0;
  std::uint64_t pool_hit = 0;
  std::uint64_t pool_miss = 0;
  std::uint64_t async_dropped = 0;
  std::uint64_t drops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t steal_ticks = 0;  // host-wide, see read_host_ticks()
  std::uint64_t host_ticks = 0;
};

/// The VM's CPU time stolen by the hypervisor, and all CPU time, in clock
/// ticks summed over CPUs (first line of /proc/stat). Zero where the
/// kernel does not account steal.
void read_host_ticks(std::uint64_t& steal, std::uint64_t& total) {
  steal = 0;
  total = 0;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  for (int i = 0; i < n; ++i) total += v[i];
  if (n == 8) steal = v[7];
}

/// Indices of the measurements (slices, set-ups) the hypervisor disturbed
/// least: the quarter with the fewest stolen ticks, plus any tied with the
/// last of them. Where the host reports no steal every index ties, so all
/// are kept.
std::vector<std::size_t> least_stolen(const std::vector<std::uint64_t>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  std::size_t keep = std::max<std::size_t>(1, order.size() / 4);
  while (keep < order.size() &&
         steal[order[keep]] == steal[order[keep - 1]]) {
    ++keep;
  }
  order.resize(std::min(keep, order.size()));  // no measurements: none
  return order;
}

Usage snapshot(cqos::net::Transport& net) {
  Usage u;
  u.t = cqos::now();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  u.user_s = seconds_of(ru.ru_utime);
  u.sys_s = seconds_of(ru.ru_stime);
  u.vol_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
  u.msgs = net.messages_sent();
  u.bytes = net.bytes_sent();
  auto& reg = cqos::metrics::Registry::global();
  u.encodes = reg.counter("cqos.request.encodes").value();
  u.pool_hit = reg.counter("cqos.pool.hit").value();
  u.pool_miss = reg.counter("cqos.pool.miss").value();
  u.async_dropped = reg.counter("cactus.pool.async_dropped").value();
  u.drops = drop_count();
  u.allocs = allocations();
  read_host_ticks(u.steal_ticks, u.host_ticks);
  return u;
}

/// Nearest-rank percentile; sorts `v`.
template <typename T>
double percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double cpu_s(const Usage& u) { return u.user_s + u.sys_s; }

struct LoopResult {
  // marks[0] is the window's start; marks[k] the end of slice k-1.
  std::vector<Usage> marks;
  // Per slice: reservoir latency samples of all clients, calls, failures.
  std::vector<std::vector<float>> lat_us;
  std::vector<std::uint64_t> attempted;
  std::vector<std::uint64_t> failed;

  const Usage& begin() const { return marks.front(); }
  const Usage& end() const { return marks.back(); }
  std::uint64_t total_attempted() const {
    std::uint64_t n = 0;
    for (std::uint64_t a : attempted) n += a;
    return n;
  }
  std::uint64_t total_failed() const {
    std::uint64_t n = 0;
    for (std::uint64_t f : failed) n += f;
    return n;
  }
  double cpu_us_per_call() const {
    return (cpu_s(end()) - cpu_s(begin())) * 1e6 /
           static_cast<double>(total_attempted());
  }
  double per_call(std::uint64_t Usage::*field) const {
    return static_cast<double>(end().*field - begin().*field) /
           static_cast<double>(total_attempted());
  }
  std::vector<float> all_lat_us() const {
    std::vector<float> all;
    for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  std::vector<std::size_t> quiet_slices() const {
    std::vector<std::uint64_t> steal;
    for (std::size_t k = 0; k + 1 < marks.size(); ++k) {
      steal.push_back(marks[k + 1].steal_ticks - marks[k].steal_ticks);
    }
    return least_stolen(steal);
  }

  /// Share of the VM's CPU time the hypervisor stole over `slices`.
  double steal_share(const std::vector<std::size_t>& slices) const {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
    for (std::size_t k : slices) {
      steal += marks[k + 1].steal_ticks - marks[k].steal_ticks;
      total += marks[k + 1].host_ticks - marks[k].host_ticks;
    }
    return total == 0 ? 0 : static_cast<double>(steal) /
                                 static_cast<double>(total);
  }
};

/// Runs every client in its own thread until `window` has passed after
/// `warmup`, or each client has made `max_calls` calls in the window.
LoopResult run_loop(const WorkloadSpec& spec, Deployment& d, Duration warmup,
                    Duration window, std::size_t max_calls) {
  const auto n_slices =
      static_cast<std::size_t>(std::max<Duration::rep>(1, window / kSlice));
  const Duration slice = window / static_cast<Duration::rep>(n_slices);
  const TimePoint start = cqos::now() + warmup;
  const TimePoint end = start + slice * static_cast<Duration::rep>(n_slices);
  cqos::CountdownLatch done(spec.clients);
  std::vector<std::thread> threads;
  for (Client& c : d.clients) c.slices.assign(n_slices, Client::Slice{});
  for (Client& c : d.clients) {
    threads.emplace_back([&spec, &c, &done, start, end, slice, max_calls] {
      std::uint64_t calls = 0;
      for (;;) {
        const TimePoint t0 = cqos::now();
        if (t0 >= end || calls >= max_calls) break;
        const Outcome o = step(spec, c);
        if (t0 < start) continue;
        const auto us = static_cast<float>(cqos::to_us(cqos::now() - t0));
        Client::Slice& s =
            c.slices[static_cast<std::size_t>((t0 - start) / slice)];
        if (s.attempted < kReservoir) {
          s.lat_us[s.attempted] = us;
        } else if (std::uint64_t j = c.pick() % (s.attempted + 1);
                   j < kReservoir) {
          s.lat_us[j] = us;
        }
        ++s.attempted;
        ++calls;
        if (o != Outcome::kOk) ++s.failed;
      }
      done.count_down();
    });
  }
  LoopResult r;
  std::this_thread::sleep_until(start);
  r.marks.push_back(snapshot(d.cluster->transport()));
  for (std::size_t k = 1; k <= n_slices; ++k) {
    const TimePoint boundary = start + slice * static_cast<Duration::rep>(k);
    const bool all_done = done.wait_for(boundary - cqos::now());
    r.marks.push_back(snapshot(d.cluster->transport()));
    if (all_done) break;
  }
  for (std::thread& t : threads) t.join();
  r.lat_us.resize(n_slices);
  r.attempted.assign(n_slices, 0);
  r.failed.assign(n_slices, 0);
  for (Client& c : d.clients) {
    for (std::size_t k = 0; k < n_slices; ++k) {
      const Client::Slice& s = c.slices[k];
      const auto kept = static_cast<std::ptrdiff_t>(
          std::min<std::uint64_t>(s.attempted, kReservoir));
      r.lat_us[k].insert(r.lat_us[k].end(), s.lat_us.begin(),
                         s.lat_us.begin() + kept);
      r.attempted[k] += s.attempted;
      r.failed[k] += s.failed;
    }
    c.slices.clear();
  }
  if (r.total_attempted() == 0) {
    std::fprintf(stderr, "perfbench: %s: no call completed in the window\n",
                 spec.name.c_str());
    std::exit(1);
  }
  return r;
}

void collect_outcome(Deployment& d, RunResult& out) {
  for (Client& c : d.clients) {
    out.violations.insert(out.violations.end(), c.violations.begin(),
                          c.violations.end());
    for (const std::string& e : c.errors) {
      std::fprintf(stderr, "perfbench: call failed: %s\n", e.c_str());
    }
  }
}

/// Peak resident set of this process image, from VmHWM. (ru_maxrss is not
/// used: it survives exec, so it can report the launching process's peak.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

// Handlers every stack runs. Their self-times are in the result line; any
// other handler (security, replication, ordering, voting) is printed on its
// own line for the workloads whose stack has it.
const char* const kBaseHandlers[] = {
    "micro.newRequest.assigner",
    "micro.invokeSuccess.resultReturner",
    "micro.newServerRequest.getParameters",
    "micro.readyToInvoke.invokeServant",
    "micro.invokeReturn.returnReleaser",
};

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RunResult run_end_to_end(const WorkloadSpec& spec, std::uint64_t seed,
                         double seconds) {
  cqos::trace::Tracer::global().set_enabled(false);
  std::vector<double> setup_s;
  std::vector<std::uint64_t> setup_steal;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    std::uint64_t steal0 = 0;
    std::uint64_t steal1 = 0;
    std::uint64_t ticks = 0;
    read_host_ticks(steal0, ticks);
    const TimePoint t0 = cqos::now();
    d = deploy(spec, seed);
    setup_s.push_back(cqos::to_us(cqos::now() - t0) * 1e-6);
    read_host_ticks(steal1, ticks);
    setup_steal.push_back(steal1 - steal0);
  }
  std::vector<double> quiet_setup_s;
  for (std::size_t i : least_stolen(setup_steal)) {
    quiet_setup_s.push_back(setup_s[i]);
  }

  LoopResult r = run_loop(spec, *d, kWarmup,
                          std::chrono::duration_cast<Duration>(
                              std::chrono::duration<double>(seconds)),
                          SIZE_MAX);
  RunResult out;
  check_final_state(spec, *d, out.violations);
  collect_outcome(*d, out);
  d.reset();

  out.attempted = r.total_attempted();
  out.failed = r.total_failed();
  // Slices in which the hypervisor took CPU from the VM measure the host,
  // not the program: the end-to-end timings are medians over the quietest
  // slices.
  const std::vector<std::size_t> quiet = r.quiet_slices();
  std::vector<std::size_t> all(r.lat_us.size());
  for (std::size_t k = 0; k < all.size(); ++k) all[k] = k;
  char steal_note[128];
  std::snprintf(steal_note, sizeof steal_note,
                "; host steal %.1f%% in them, %.1f%% in all",
                100 * r.steal_share(quiet), 100 * r.steal_share(all));
  const std::string n = "n=" + std::to_string(out.attempted) +
                        " calls; median of " + std::to_string(quiet.size()) +
                        " of " + std::to_string(all.size()) +
                        " slices of 250 ms, least host steal first" +
                        steal_note;
  auto median_over_quiet = [&](auto&& f) {
    std::vector<double> v;
    for (std::size_t k : quiet) v.push_back(f(k));
    return percentile(v, 50);
  };
  auto slice_s = [&](std::size_t k) {
    return cqos::to_us(r.marks[k + 1].t - r.marks[k].t) * 1e-6;
  };
  auto slice_calls = [&](std::size_t k) {
    return static_cast<double>(std::max<std::uint64_t>(r.attempted[k], 1));
  };
  // throughput_cps and latency_p99_ms are printed but kept out of the result
  // line: when the host steals CPU for a whole run they move by 2-10x, more
  // than any useful bound, while the median and the CPU cost move by less.
  out.metrics = {
      {"throughput_cps", median_over_quiet([&](std::size_t k) {
         return static_cast<double>(r.attempted[k] - r.failed[k]) / slice_s(k);
       }),
       "1/s", n, false},
      {"latency_p50_ms", median_over_quiet([&](std::size_t k) {
         return percentile(r.lat_us[k], 50) / 1000.0;
       }),
       "ms", n},
      {"latency_p99_ms", median_over_quiet([&](std::size_t k) {
         return percentile(r.lat_us[k], 99) / 1000.0;
       }),
       "ms", n, false},
      {"cpu_us_per_call", median_over_quiet([&](std::size_t k) {
         return (cpu_s(r.marks[k + 1]) - cpu_s(r.marks[k])) * 1e6 /
                slice_calls(k);
       }),
       "us", n},
      {"setup_s", percentile(quiet_setup_s, 50), "s",
       "median of " + std::to_string(quiet_setup_s.size()) + " of " +
           std::to_string(kSetups) + " set-ups, least host steal first"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "VmHWM"},
  };
  return out;
}

RunResult run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                     double seconds) {
  cqos::trace::Tracer& tracer = cqos::trace::Tracer::global();
  tracer.set_enabled(false);
  std::unique_ptr<Deployment> d = deploy(spec, seed);
  const Duration half = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(seconds / 2));

  set_alloc_counting(true);
  LoopResult untraced = run_loop(spec, *d, kWarmup, half, SIZE_MAX);

  tracer.clear();
  tracer.set_capacity(kTraceCapacity);
  const cqos::trace::TraceId first_id = cqos::trace::next_trace_id();
  tracer.set_enabled(true);
  LoopResult traced = run_loop(spec, *d, Duration::zero(), half,
                               kMaxTracedCalls / spec.clients);
  // Let replicas the vote did not wait for finish their spans.
  std::this_thread::sleep_for(cqos::ms(50));
  tracer.set_enabled(false);
  const cqos::trace::TraceId last_id = cqos::trace::next_trace_id();
  set_alloc_counting(false);
  if (tracer.size() >= kTraceCapacity) {
    std::fprintf(stderr, "perfbench: span ring full, traced window cut\n");
    std::exit(1);
  }

  RunResult out;
  check_final_state(spec, *d, out.violations);
  collect_outcome(*d, out);
  const ValueList params = write_params(spec, d->clients.front(), 0);
  d.reset();
  out.attempted = untraced.total_attempted() + traced.total_attempted();
  out.failed = untraced.total_failed() + traced.total_failed();

  // Group spans by trace id; keep calls whose root span was recorded.
  std::vector<CallLayers> calls;
  std::set<std::string> seen_layers;
  std::vector<double> root_us;
  for (cqos::trace::TraceId id = first_id + 1; id < last_id; ++id) {
    std::vector<cqos::trace::Span> spans = tracer.spans_for(id);
    if (spans.empty()) continue;
    CallLayers call = attribute_call(spans);
    if (call.root_ns < 0) continue;
    root_us.push_back(static_cast<double>(call.root_ns) / 1000.0);
    for (const auto& [layer, ns] : call.self_ns) seen_layers.insert(layer);
    calls.push_back(std::move(call));
  }
  tracer.clear();
  if (calls.empty()) {
    std::fprintf(stderr, "perfbench: no complete traced call\n");
    std::exit(1);
  }
  auto layer_us = [&](const std::string& layer) {
    std::vector<double> v;
    v.reserve(calls.size());
    for (const CallLayers& c : calls) {
      auto it = c.self_ns.find(layer);
      v.push_back(it == c.self_ns.end() ? 0.0 : it->second / 1000.0);
    }
    return v;
  };

  const std::string n = "n=" + std::to_string(calls.size()) + " traced calls";
  const std::string nu =
      "n=" + std::to_string(untraced.total_attempted()) + " untraced calls";
  std::vector<Metric>& m = out.metrics;
  for (const std::string layer : {"cqos.stub", "cqos.skeleton", "cactus.client",
                                   "cactus.server", "platform.gap"}) {
    std::vector<double> v = layer_us(layer);
    const std::string base =
        layer == "platform.gap" ? "platform.gap_" : layer + ".self_";
    m.push_back({base + "p50_us", percentile(v, 50), "us", n});
    m.push_back({base + "p99_us", percentile(v, 99), "us", n});
  }
  for (const char* handler : kBaseHandlers) {
    std::vector<double> v = layer_us(handler);
    m.push_back({std::string(handler) + ".self_p50_us", percentile(v, 50),
                 "us", n});
  }
  for (const std::string& layer : seen_layers) {
    if (!layer.starts_with("micro.") ||
        std::find(std::begin(kBaseHandlers), std::end(kBaseHandlers),
                  layer) != std::end(kBaseHandlers)) {
      continue;
    }
    std::vector<double> v = layer_us(layer);
    m.push_back({layer + ".self_p50_us", percentile(v, 50), "us", n, false});
  }

  // Layer medians against the traced end-to-end median. Time outside the
  // outermost span (the benchmark's own call site) is the unattributed
  // remainder.
  double layer_sum = 0;
  for (const std::string& layer : seen_layers) {
    std::vector<double> v = layer_us(layer);
    layer_sum += percentile(v, 50);
  }
  std::vector<float> traced_lat = traced.all_lat_us();
  const double lat_p50_us = percentile(traced_lat, 50);
  const double unattributed = lat_p50_us - percentile(root_us, 50);
  m.push_back({"trace.unattributed_p50_us", unattributed, "us", n});
  m.push_back({"trace.layer_sum_gap_pct",
               100.0 * (layer_sum + unattributed - lat_p50_us) / lat_p50_us,
               "%", "sum of layer p50s vs traced latency p50 " +
                        std::to_string(lat_p50_us) + " us"});
  m.push_back({"trace.overhead_us_per_call",
               traced.cpu_us_per_call() - untraced.cpu_us_per_call(), "us",
               "traced " + std::to_string(traced.cpu_us_per_call()) +
                   " - untraced " +
                   std::to_string(untraced.cpu_us_per_call())});
  std::vector<std::size_t> all_traced(traced.marks.size() - 1);
  for (std::size_t k = 0; k < all_traced.size(); ++k) all_traced[k] = k;
  char steal_note[64];
  std::snprintf(steal_note, sizeof steal_note, "; host steal %.1f%%",
                100 * traced.steal_share(all_traced));
  m.push_back({"trace.calls", static_cast<double>(calls.size()), "count",
               "of " + std::to_string(traced.total_attempted()) + " traced" +
                   steal_note});

  m.push_back({"cqos.request.encodes_per_call",
               untraced.per_call(&Usage::encodes), "count", nu});
  m.push_back({"cactus.pool.async_dropped",
               static_cast<double>(untraced.end().async_dropped -
                                   untraced.begin().async_dropped),
               "count", nu});
  const double msgs = untraced.per_call(&Usage::msgs);
  const double bytes = untraced.per_call(&Usage::bytes);
  m.push_back({"net.msgs_per_call", msgs, "count", nu});
  m.push_back({"net.bytes_per_call", bytes, "B", nu});
  m.push_back({"net.drops",
               static_cast<double>(untraced.end().drops -
                                   untraced.begin().drops),
               "count", nu});
  const auto msg_bytes = static_cast<std::size_t>(std::lround(bytes / msgs));
  m.push_back({"net.rtt_us", rtt_us(spec.transport, msg_bytes), "us",
               "fresh transport, " + std::to_string(msg_bytes) + " B"});

  const std::size_t param_bytes = Value::encoded_list_size(params);
  const std::string sized = std::to_string(param_bytes) + " B params";
  m.push_back({"crypto.des_cbc_us", des_cbc_us(param_bytes), "us",
               sized + (spec.uses_crypto ? "" : ", not on this call path")});
  m.push_back({"crypto.hmac_us", hmac_us(param_bytes), "us",
               sized + (spec.uses_crypto ? "" : ", not on this call path")});
  m.push_back({"common.value_codec_us", value_codec_us(params), "us", sized});
  const double hits = untraced.per_call(&Usage::pool_hit);
  const double misses = untraced.per_call(&Usage::pool_miss);
  m.push_back({"common.buffer_pool.hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
               std::to_string(hits + misses) + " buffer requests per call"});

  m.push_back({"stack.allocs_per_call", untraced.per_call(&Usage::allocs),
               "count", nu});
  m.push_back({"stack.vol_ctx_switches_per_call",
               untraced.per_call(&Usage::vol_ctx_switches), "count", nu});
  m.push_back({"stack.sys_cpu_us_per_call",
               (untraced.end().sys_s - untraced.begin().sys_s) * 1e6 /
                   static_cast<double>(untraced.total_attempted()),
               "us", nu});

  return out;
}

}  // namespace perfbench
