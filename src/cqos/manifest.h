// Declarative effect model for micro-protocols.
//
// A MicroManifest records, per micro-protocol, everything the composition
// verifier (verify.h) needs to analyze a QoS configuration statically: the
// events the protocol binds handlers to and the events it raises, the
// piggyback keys it reads and writes, the config keys it accepts and
// requires, cross-protocol constraints, and semantic properties. Manifests
// are registered alongside factories in the MicroProtocolRegistry
// (reg.add(side, name, &X::make, X::manifest())) and kept honest by the
// `manifest-sync` rule of tools/cqos_lint, which cross-checks the declared
// events against the actual bind_tracked/raise calls in the source.
//
// Constraint strings (see also verify.h):
//   requires:<name>          <name> must be present in the same stack
//   conflicts:<name>         <name> must NOT be present in the same stack
//   after:<name>             when both are configured, this protocol must
//                            appear after <name> in the stack order
//   before:<name>            mirror of after
//   requires-peer:<a|b|c>    the opposite side's stack must contain one of
//                            the listed protocols
//   requires-peer-property:<p>  the opposite side's stack must contain a
//                            protocol declaring property <p>
//
// Well-known properties:
//   total-order    replicas apply requests in one agreed sequence
//   at-most-once   duplicate deliveries of one request apply once
//   replication    the protocol fans out / manages replica groups
#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

namespace cqos {

enum class Side { kClient, kServer };

inline const char* side_name(Side s) {
  return s == Side::kClient ? "client" : "server";
}

struct MicroManifest {
  std::string name;
  Side side = Side::kClient;

  std::vector<std::string> bind_events;    // events with handlers installed
  std::vector<std::string> raise_events;   // events this protocol raises
  std::vector<std::string> pb_reads;       // piggyback keys read
  std::vector<std::string> pb_writes;      // piggyback keys written
  std::vector<std::string> config_keys;    // accepted spec parameters
  std::vector<std::string> required_keys;  // parameters that must be present
  std::vector<std::string> constraints;    // encoded constraint strings
  std::vector<std::string> properties;     // semantic tags ("total-order"...)

  MicroManifest() = default;
  MicroManifest(std::string n, Side s) : name(std::move(n)), side(s) {}

  MicroManifest& binds(std::string_view event) {
    return push(bind_events, event);
  }
  MicroManifest& raises(std::string_view event) {
    return push(raise_events, event);
  }
  MicroManifest& reads_pb(std::string_view key) { return push(pb_reads, key); }
  MicroManifest& writes_pb(std::string_view key) {
    return push(pb_writes, key);
  }
  MicroManifest& config(std::string_view key) {
    return push(config_keys, key);
  }
  /// Accepted AND mandatory: verification fails when the spec omits it.
  MicroManifest& requires_config(std::string_view key) {
    push(config_keys, key);
    return push(required_keys, key);
  }
  MicroManifest& constraint(std::string_view c) {
    return push(constraints, c);
  }
  MicroManifest& property(std::string_view p) { return push(properties, p); }

  bool has_property(std::string_view p) const { return has(properties, p); }
  bool accepts_config(std::string_view key) const {
    return has(config_keys, key);
  }

 private:
  static bool has(const std::vector<std::string>& v, std::string_view s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  }
  MicroManifest& push(std::vector<std::string>& v, std::string_view s) {
    if (!has(v, s)) v.emplace_back(s);
    return *this;
  }
};

}  // namespace cqos
