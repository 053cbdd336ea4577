// Ablation C — interception-level marshaling costs.
//
// Explains the Table 1 asymmetry between platforms: the CQoS stub's
// abstract-request → DII conversion on CORBA (an NVList deep copy before the
// GIOP marshal) versus the RMI stream's single-pass encode; plus the DSI
// Any-extraction copy on the server side, and the wire-size gap between the
// aligned CDR format and the compact JRMP format.
#include <benchmark/benchmark.h>

#include "platform/corba/giop.h"
#include "platform/rmi/jrmp.h"

namespace cqos::bench {
namespace {

ValueList typical_params() {
  return {Value(std::int64_t{123456789}), Value("set_balance parameter"),
          Value(2.5), Value(Bytes(64, 0xab))};
}

PiggybackMap typical_pb() {
  return {{"cq.id", Value(std::int64_t{42})}, {"cq.prio", Value(5)}};
}

constexpr const char* kCorbaKey = "Bank_agent_poa_1/Bank_CQoS_Skeleton";

// Static stub path on CORBA: one-pass GIOP/CDR encode.
void BM_CorbaStaticEncode(benchmark::State& state) {
  ValueList params = typical_params();
  PiggybackMap pb = typical_pb();
  for (auto _ : state) {
    benchmark::DoNotOptimize(corba::giop_codec().encode_request(
        1, "cli/orbcli0", kCorbaKey, "set_balance", pb, params));
  }
}
BENCHMARK(BM_CorbaStaticEncode);

// DII path: NVList population (Any insertion deep copies), the copy out of
// it into the request's parameter list, then marshal (CorbaRequest::invoke).
void BM_CorbaDiiEncode(benchmark::State& state) {
  ValueList params = typical_params();
  PiggybackMap pb = typical_pb();
  for (auto _ : state) {
    // Model CorbaRequest::add_in_arg: named-value list with copied Anys.
    std::vector<std::pair<std::string, Value>> nvlist;
    nvlist.reserve(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      nvlist.emplace_back("arg" + std::to_string(i), params[i]);
    }
    ValueList request_params;
    request_params.reserve(nvlist.size());
    for (auto& nv : nvlist) request_params.push_back(nv.second);
    benchmark::DoNotOptimize(corba::giop_codec().encode_request(
        1, "cli/orbcli0", kCorbaKey, "set_balance", pb, request_params));
  }
}
BENCHMARK(BM_CorbaDiiEncode);

// RMI stub path: single-pass stream encode.
void BM_RmiEncode(benchmark::State& state) {
  ValueList params = typical_params();
  PiggybackMap pb = typical_pb();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rmi::jrmp_codec().encode_request(
        1, "cli/rmicli0", "Bank_CQoS_Skeleton_1", "set_balance", pb, params));
  }
}
BENCHMARK(BM_RmiEncode);

// Server side: static decode vs DSI decode (+ Any extraction copy).
void BM_CorbaDecode(benchmark::State& state, bool dsi) {
  const plat::Codec& giop = corba::giop_codec();
  Bytes frame = giop.encode_request(1, "cli/orbcli0", "poa/Obj",
                                    "set_balance", typical_pb(),
                                    typical_params());
  for (auto _ : state) {
    plat::Frame decoded = giop.decode(frame);
    if (dsi) {
      ValueList extracted = decoded.params;  // Any extraction copy
      benchmark::DoNotOptimize(extracted);
    } else {
      ValueList moved = std::move(decoded.params);
      benchmark::DoNotOptimize(moved);
    }
  }
}
void BM_CorbaStaticDecode(benchmark::State& state) {
  BM_CorbaDecode(state, false);
}
void BM_CorbaDsiDecode(benchmark::State& state) { BM_CorbaDecode(state, true); }
BENCHMARK(BM_CorbaStaticDecode);
BENCHMARK(BM_CorbaDsiDecode);

void BM_RmiDecode(benchmark::State& state) {
  const plat::Codec& jrmp = rmi::jrmp_codec();
  Bytes frame = jrmp.encode_request(1, "cli/rmicli0", "Obj", "set_balance",
                                    typical_pb(), typical_params());
  for (auto _ : state) benchmark::DoNotOptimize(jrmp.decode(frame));
}
BENCHMARK(BM_RmiDecode);

// Wire-size comparison printed once at the end of the run.
void BM_WireSizes(benchmark::State& state) {
  Bytes giop = corba::giop_codec().encode_request(
      1, "cli/orbcli0", kCorbaKey, "set_balance", typical_pb(),
      typical_params());
  Bytes jrmp = rmi::jrmp_codec().encode_request(
      1, "cli/rmicli0", "Bank_CQoS_Skeleton_1", "set_balance", typical_pb(),
      typical_params());
  for (auto _ : state) {
    benchmark::DoNotOptimize(giop.size());
    benchmark::DoNotOptimize(jrmp.size());
  }
  state.counters["giop_bytes"] = static_cast<double>(giop.size());
  state.counters["jrmp_bytes"] = static_cast<double>(jrmp.size());
}
BENCHMARK(BM_WireSizes)->Iterations(1);

}  // namespace
}  // namespace cqos::bench

BENCHMARK_MAIN();
