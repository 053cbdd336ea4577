// Ablation E — the zero-copy request path (DESIGN.md §10).
//
// Quantifies each layer of the zero-copy work on a security-configured
// round trip (des_privacy + integrity on both sides), the configuration
// where the request parameters are consumed the most times per call:
//
//   - BufferPool         pooled ByteWriter backing buffers vs malloc/free
//                        per encode (BufferPool::set_enabled);
//   - encoded-params     the Request single-encode cache vs re-encoding the
//     cache               parameter list for every consumer — HMAC input,
//                        DES plaintext (Request::set_encode_cache_enabled).
//
// The round trip runs in-process over a loopback QoS interface (mirroring
// tests/test_stub_skeleton.cc): cluster round trips are dominated by the
// simulated wire latency and condvar wakeups, which would mask the CPU cost
// this PR targets. The per-layer micro-benches isolate each mechanism; the
// "legacy (all off)" row is the pre-PR behaviour.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/harness.h"
#include "common/buffer_pool.h"
#include "cqos/cactus_client.h"
#include "cqos/cactus_server.h"
#include "cqos/platform_qos.h"
#include "cqos/request.h"
#include "cqos/skeleton.h"
#include "cqos/stub.h"
#include "crypto/des.h"
#include "crypto/sha256.h"
#include "micro/client_base.h"
#include "micro/security.h"
#include "micro/server_base.h"
#include "net/sim_network.h"
#include "sim/bank_account.h"

namespace cqos::bench {
namespace {

struct Knobs {
  bool pool = true;
  bool encode_cache = true;
};

void apply(const Knobs& k) {
  BufferPool::set_enabled(k.pool);
  Request::set_encode_cache_enabled(k.encode_cache);
}

/// Applies an ablation configuration for one benchmark and restores the
/// defaults (everything enabled) afterwards.
struct KnobGuard {
  explicit KnobGuard(const Knobs& k) { apply(k); }
  ~KnobGuard() { apply(Knobs{}); }
};

Bytes hex(const char* h) { return micro::parse_hex_key(h, "bench key"); }
Bytes des_key() { return hex("133457799bbcdff1"); }
Bytes des_iv() { return hex("0001020304050607"); }
Bytes mac_key() { return hex("6b6579206b6579206b657921"); }

// --- in-process secured stack (mirrors tests/test_stub_skeleton.cc) ---------

/// Takes the reply a handler sends before it returns.
struct ReplyCapture : plat::ReplyOutlet {
  plat::Reply reply;
  void send(std::uint64_t, const std::string&, plat::Reply r) override {
    reply = std::move(r);
  }
};

class LoopbackClientQos : public ClientQosInterface {
 public:
  explicit LoopbackClientQos(std::shared_ptr<plat::ServantHandler> handler)
      : handler_(std::move(handler)) {}

  int num_servers() const override { return 1; }
  void bind(int) override {}
  ServerStatus server_status(int) override { return ServerStatus::kRunning; }
  ServerStatus probe(int) override { return ServerStatus::kRunning; }
  void mark_failed(int) override {}

  void invoke_server(Request& req, Invocation& inv) override {
    PiggybackMap pb = req.piggyback;
    pb[pbkey::kRequestId] = Value(static_cast<std::int64_t>(req.id));
    pb[pbkey::kPriority] = Value(static_cast<std::int64_t>(req.priority));
    auto capture = std::make_shared<ReplyCapture>();
    handler_->handle(req.method, req.params(), pb,
                     plat::ReplyHandle(capture, 0, ""));
    plat::Reply& reply = capture->reply;
    inv.success = reply.ok();
    inv.result = std::move(reply.result);
    inv.error = std::move(reply.error);
    inv.reply_piggyback = std::move(reply.piggyback);
  }

  std::string description() const override { return "loopback"; }

 private:
  std::shared_ptr<plat::ServantHandler> handler_;
};

class LoopbackServerQos : public ServerQosInterface {
 public:
  explicit LoopbackServerQos(std::shared_ptr<Servant> servant)
      : servant_(std::move(servant)) {}
  int num_servers() const override { return 1; }
  int replica_index() const override { return 0; }
  const std::string& object_id() const override { return object_id_; }
  void invoke_servant(Request& req) override {
    try {
      req.stage(true, servant_->dispatch(req.method, req.params()));
    } catch (const std::exception& e) {
      req.stage(false, Value(), e.what());
    }
  }
  bool peer_call(int, const std::string&, const ValueList&, Value*) override {
    return false;
  }
  std::string description() const override { return "loopback-server"; }

 private:
  std::shared_ptr<Servant> servant_;
  std::string object_id_ = "Bank";
};

/// The security-configured round trip of the acceptance criterion: stub →
/// encrypt+sign → skeleton → verify+decrypt → servant, and the encrypted
/// reply back.
class SecuredLoopback {
 public:
  SecuredLoopback() {
    auto servant = std::make_shared<sim::BankAccountServant>(0);
    server_ = std::make_shared<CactusServer>(
        std::make_unique<LoopbackServerQos>(std::move(servant)));
    server_->add_micro_protocol(std::make_unique<micro::ServerBase>());
    server_->add_micro_protocol(
        std::make_unique<micro::DesPrivacyServer>(des_key(), des_iv()));
    server_->add_micro_protocol(
        std::make_unique<micro::IntegrityServer>(mac_key()));
    auto skeleton = std::make_shared<CqosSkeleton>("Bank", server_);

    client_ = std::make_shared<CactusClient>(
        std::make_unique<LoopbackClientQos>(std::move(skeleton)));
    client_->add_micro_protocol(std::make_unique<micro::ClientBase>());
    client_->add_micro_protocol(
        std::make_unique<micro::DesPrivacyClient>(des_key(), des_iv()));
    client_->add_micro_protocol(
        std::make_unique<micro::IntegrityClient>(mac_key()));
    stub_ = std::make_shared<CqosStub>(client_, "Bank");
  }

  std::shared_ptr<CqosStub> stub_ptr() { return stub_; }

 private:
  std::shared_ptr<CactusServer> server_;
  std::shared_ptr<CactusClient> client_;
  std::shared_ptr<CqosStub> stub_;
};

// --- end-to-end ablation ----------------------------------------------------
//
// Measured with the harness.h recipe rather than a google-benchmark loop:
// interleaved rounds (every config measured once per round, so slow-machine
// drift hits all configs alike) and the best round's mean per config (robust
// against the positive-tailed scheduler noise of a shared 1-CPU box, where
// mean-of-repetitions showed 10-20% run-to-run CV).

struct AblationRow {
  const char* label;
  Knobs knobs;
  double best_mean = 0;       // best round's mean pair time, ms
  LatencyRecorder best_lat;   // that round's samples
};

void run_roundtrip_ablation() {
  std::vector<AblationRow> rows = {
      {"full (this PR)", Knobs{}, 0, {}},
      {"no buffer pool", Knobs{.pool = false}, 0, {}},
      {"no encode cache", Knobs{.encode_cache = false}, 0, {}},
      {"legacy (all off)", Knobs{.pool = false, .encode_cache = false}, 0, {}},
  };

  // One shared fixture: the knobs are read per operation, so every config
  // exercises identical code and identical memory.
  SecuredLoopback loop;
  sim::BankAccountStub account(loop.stub_ptr());
  const int pairs = std::max(100, bench_pairs() / 2);
  const int rounds = 5;

  for (int round = 0; round < rounds; ++round) {
    for (AblationRow& row : rows) {
      KnobGuard guard(row.knobs);
      for (int w = 0; w < 20; ++w) {
        account.set_balance(w);
        (void)account.get_balance();
      }
      LatencyRecorder lat;
      for (int i = 0; i < pairs; ++i) {
        TimePoint t0 = now();
        account.set_balance(i);
        (void)account.get_balance();
        lat.add(to_ms(now() - t0));
      }
      if (round == 0 || lat.mean() < row.best_mean) {
        row.best_mean = lat.mean();
        row.best_lat = lat;
      }
    }
  }

  const double legacy = rows.back().best_mean;
  std::printf(
      "\nSecured round trip (des_privacy + integrity, loopback; %d pairs x "
      "%d interleaved rounds, best round)\n",
      pairs, rounds);
  std::printf("%-24s %10s %10s %10s %8s %10s\n", "Configuration", "mean_ms",
              "p50_ms", "p99_ms", "cov%", "vs legacy");
  for (const AblationRow& row : rows) {
    std::printf("%-24s %10.4f %10.4f %10.4f %8.2f %+9.1f%%\n", row.label,
                row.best_mean, row.best_lat.percentile(50),
                row.best_lat.percentile(99), row.best_lat.cov_pct(),
                legacy > 0 ? (row.best_mean - legacy) / legacy * 100.0 : 0.0);
  }
  std::printf(
      "improvement (full vs legacy): %.1f%%\n",
      legacy > 0 ? (legacy - rows.front().best_mean) / legacy * 100.0 : 0.0);
  if (std::getenv("CQOS_BENCH_DUMP_METRICS") != nullptr) {
    std::printf("metrics: %s\n",
                metrics::Registry::global().to_json().c_str());
  }
}

// --- per-layer micro-benches ------------------------------------------------

ValueList typical_params() {
  return {Value(std::int64_t{123456789}), Value("set_balance parameter"),
          Value(2.5), Value(Bytes(512, 0xab))};
}

// Encode → consume → recycle, the lifecycle of every wire buffer. Pooled,
// the recycled capacity is reused by the next acquire; unpooled, every
// iteration pays a malloc/free of the full payload.
void BM_EncodeList(benchmark::State& state, bool pooled) {
  KnobGuard guard(Knobs{.pool = pooled});
  ValueList params = typical_params();
  for (auto _ : state) {
    Bytes encoded = Value::encode_list(params);
    benchmark::DoNotOptimize(encoded.data());
    BufferPool::recycle(std::move(encoded));
  }
}
BENCHMARK_CAPTURE(BM_EncodeList, pooled, true);
BENCHMARK_CAPTURE(BM_EncodeList, malloc_each, false);

// Request::encoded_params() — cached, every call after the first is a
// shared_ptr copy; uncached, every call re-walks the Value tree.
void BM_RequestEncodedParams(benchmark::State& state, bool cached) {
  KnobGuard guard(Knobs{.encode_cache = cached});
  Request req("Bank", "set_balance", typical_params());
  for (auto _ : state) {
    benchmark::DoNotOptimize(req.encoded_params());
  }
}
BENCHMARK_CAPTURE(BM_RequestEncodedParams, cached, true);
BENCHMARK_CAPTURE(BM_RequestEncodedParams, encode_each, false);

// DES-CBC through the key-schedule cache, at a request-like 64 B and at
// 1 KiB, where bulk CBC dominates.
void BM_DesCbc(benchmark::State& state) {
  Bytes key = des_key();
  Bytes iv = des_iv();
  Bytes plain(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::des_cbc_encrypt(key, iv, plain));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(plain.size()));
}
BENCHMARK(BM_DesCbc)->Arg(64)->Arg(1024);

// HMAC-SHA256 over a typical secured-request payload, from the pad-block
// midstates HmacKey::for_key precomputes once per key.
void BM_HmacSha256(benchmark::State& state) {
  Bytes key = mac_key();
  Bytes data(256, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_HmacSha256);

// Move-through delivery: produce → send → recv → consume → recycle of a
// 4 KiB payload over a zero-latency SimNetwork. The payload buffer moves
// sender → in-flight Message → inbox → receiver; with the pool on, the
// receiver's PayloadRecycler feeds the sender's next acquire.
void BM_NetDeliver(benchmark::State& state, bool pooled) {
  KnobGuard guard(Knobs{.pool = pooled});
  net::NetConfig cfg;
  cfg.base_latency = {};
  cfg.per_byte = {};
  cfg.loopback_latency = {};
  cfg.jitter = 0;
  // cqos-lint: allow-transport-construction (sim-only ablation: needs the concrete simulator)
  net::SimNetwork net(cfg);
  net.create_endpoint("host/a");
  auto b = net.create_endpoint("host/b");
  const Bytes body(4096, 0x42);
  for (auto _ : state) {
    Bytes payload = BufferPool::acquire(body.size());
    payload.assign(body.begin(), body.end());
    net.send("host/a", "host/b", std::move(payload));
    std::optional<net::Message> msg = b->recv(ms(100));
    net::PayloadRecycler recycle_payload(*msg);
    benchmark::DoNotOptimize(msg->payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(body.size()));
}
BENCHMARK_CAPTURE(BM_NetDeliver, pooled, true);
BENCHMARK_CAPTURE(BM_NetDeliver, malloc_each, false);

}  // namespace
}  // namespace cqos::bench

int main(int argc, char** argv) {
  cqos::bench::run_roundtrip_ablation();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
