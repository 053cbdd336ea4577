#include "layer_timers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "crypto/des.h"
#include "crypto/sha256.h"

namespace perfbench {
namespace {

using cqos::Bytes;
using cqos::Duration;
using cqos::TimePoint;

// Keys of the secured workload's des_privacy and integrity specs.
const Bytes kDesKey = {0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef};
const Bytes kIv = {0, 1, 2, 3, 4, 5, 6, 7};
const Bytes kMacKey = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                       0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};

constexpr int kBatches = 101;

// Results are folded in here so the timed calls cannot be optimized away.
volatile std::size_t g_sink = 0;

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Median over kBatches batches of the per-op time of `ops` calls of `fn`,
/// after one untimed batch. Batching keeps the clock read out of
/// sub-microsecond operations.
template <typename Fn>
double per_op_us(int ops, Fn&& fn) {
  for (int i = 0; i < ops; ++i) fn();
  std::vector<double> samples;
  samples.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    TimePoint t0 = cqos::now();
    for (int i = 0; i < ops; ++i) fn();
    samples.push_back(cqos::to_us(cqos::now() - t0) / ops);
  }
  return median(std::move(samples));
}

Bytes pattern(std::size_t bytes) {
  Bytes b(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    b[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return b;
}

}  // namespace

cqos::net::NetConfig zero_latency_net() {
  cqos::net::NetConfig cfg;
  cfg.base_latency = Duration::zero();
  cfg.per_byte = Duration::zero();
  cfg.loopback_latency = Duration::zero();
  cfg.jitter = 0.0;
  return cfg;
}

double rtt_us(cqos::net::TransportKind kind, std::size_t bytes) {
  constexpr int kTrips = 2000;
  auto net = cqos::net::make_transport(
      kind == cqos::net::TransportKind::kTcp
          ? cqos::net::TransportConfig::real_tcp()
          : cqos::net::TransportConfig::simulated(zero_latency_net()));
  auto echo_ep = net->create_endpoint("rttsrv/echo");
  auto ping_ep = net->create_endpoint("rttcli/ping");
  std::thread echo([&] {
    for (;;) {
      auto msg = echo_ep->recv(cqos::ms(100));
      if (msg) {
        net->send(echo_ep->id(), msg->from, std::move(msg->payload));
      } else if (echo_ep->closed()) {
        return;
      }
    }
  });
  const Bytes payload = pattern(bytes);
  std::vector<double> samples;
  samples.reserve(kTrips);
  bool lost = false;
  for (int i = 0; i < kTrips + kTrips / 10 && !lost; ++i) {
    TimePoint t0 = cqos::now();
    Bytes copy = payload;
    lost = !net->send(ping_ep->id(), echo_ep->id(), std::move(copy)) ||
           !ping_ep->recv(cqos::ms(2000)).has_value();
    if (i >= kTrips / 10) samples.push_back(cqos::to_us(cqos::now() - t0));
  }
  echo_ep->close();
  echo.join();
  if (lost) {
    std::fprintf(stderr, "perfbench: rtt timing lost a round trip\n");
    std::exit(1);
  }
  return median(std::move(samples));
}

double des_cbc_us(std::size_t bytes) {
  const Bytes plain = pattern(bytes);
  return per_op_us(20, [&] {
    g_sink = g_sink + cqos::crypto::des_cbc_encrypt(kDesKey, kIv, plain).size();
  });
}

double hmac_us(std::size_t bytes) {
  const Bytes data = pattern(bytes);
  return per_op_us(50, [&] {
    g_sink = g_sink + cqos::crypto::hmac_sha256(kMacKey, data)[0];
  });
}

double value_codec_us(const cqos::ValueList& params) {
  return per_op_us(200, [&] {
    Bytes encoded = cqos::Value::encode_list(params);
    g_sink = g_sink + cqos::Value::decode_list(encoded).size();
  });
}

}  // namespace perfbench
