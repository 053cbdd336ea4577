// The benchmark's workloads and the two kinds of run over them.
//
// Every workload is a closed loop: each client thread waits for a reply
// before its next call, alternating a write and a read on its own key so
// that each layer carries the payload both on the request (writes) and on
// the reply (reads). Testbed emulation is off, so what is timed is the C++
// of the layers themselves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cqos/config.h"
#include "net/transport.h"
#include "sim/cluster.h"

namespace perfbench {

enum class OpKind {
  kBlob,     // put(key, bytes) / get(key)
  kCounter,  // add(key, i64) / total(key)
};

struct WorkloadSpec {
  std::string name;
  cqos::sim::PlatformKind platform;
  cqos::net::TransportKind transport;
  int replicas;
  int clients;
  OpKind ops;
  std::size_t payload_bytes;  // kBlob only
  cqos::QosConfig qos;
  bool uses_crypto;  // des_privacy and integrity are on the call path
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed on the human-readable line only
  bool in_result = true;  // false: human-readable line only
};

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // threw, or returned a value the checks reject
  std::vector<std::string> violations;  // wrong values, diverged replicas
};

/// Untraced run: the end-to-end metrics.
RunResult run_end_to_end(const WorkloadSpec& spec, std::uint64_t seed,
                         double seconds);

/// Untraced window, then traced window, then the direct layer timings: the
/// per-layer metrics.
RunResult run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                     double seconds);

}  // namespace perfbench
