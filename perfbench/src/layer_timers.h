// Direct timings of the layers that record no span: each times one public
// function of the layer in a loop, at an input size taken from the
// workload's own messages, and returns the median time per operation.
#pragma once

#include <cstddef>

#include "common/value.h"
#include "net/transport.h"

namespace perfbench {

/// Simulated network with every latency term zero: messages are delivered
/// as soon as the receiver wakes, so only the C++ path is timed.
cqos::net::NetConfig zero_latency_net();

/// Round trip of one `bytes`-byte message through a fresh transport of
/// `kind` (TCP in self-loopback mode, or the zero-latency simulator) to an
/// echo thread and back.
double rtt_us(cqos::net::TransportKind kind, std::size_t bytes);

/// DES-CBC encryption of `bytes` bytes (the des_privacy key schedule is
/// cached, as in the micro-protocol).
double des_cbc_us(std::size_t bytes);

/// HMAC-SHA256 of `bytes` bytes with a precomputed key.
double hmac_us(std::size_t bytes);

/// Encode plus decode of a parameter list.
double value_codec_us(const cqos::ValueList& params);

}  // namespace perfbench
