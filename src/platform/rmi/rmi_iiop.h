// RMI-IIOP: RMI semantics over the CORBA transport (paper §4.2).
//
// "Java RMI currently supports both JRMP and IIOP ... RMI-IIOP systems can
// be customized using the CQoS on CORBA interception mechanisms described
// above. To achieve this, RMI-IIOP stubs are simply replaced with customized
// CQoS stubs for CORBA."
//
// RmiIiopRuntime is that configuration: an ORB whose wire format, invocation
// paths (including genuine DII/DSI) and location service are the ORB's, with
// RMI names. RMI registry names are mapped onto a dedicated POA
// ("rmi_iiop_poa"), so RMI-IIOP objects are reachable from plain CORBA
// clients that resolve the same POA/object-id pair — the interoperability
// RMI-IIOP exists for.
#pragma once

#include "platform/corba/orb.h"

namespace cqos::rmi {

class RmiIiopRuntime : public corba::CorbaOrb {
 public:
  using CorbaOrb::CorbaOrb;

  std::string name() const override { return "rmi-iiop"; }

  /// RMI naming convention, carried on a fixed POA (see header comment).
  std::string replica_name(const std::string& object_id,
                           int replica) const override {
    return std::string(kPoaName) + "/" + object_id + "_CQoS_Skeleton_" +
           std::to_string(replica);
  }

  std::string direct_name(const std::string& object_id) const override {
    return std::string(kPoaName) + "/" + object_id;
  }

  static constexpr const char* kPoaName = "rmi_iiop_poa";
};

}  // namespace cqos::rmi
