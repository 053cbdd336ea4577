// Smart agent: the ORB's location service (modeled on Visibroker's osagent,
// which the paper's prototype used for binding POAs by name).
//
// Servers register "<poa_name>/<object_id>" -> IOR; clients look the name
// up. A plat::NameServer spoken to in GIOP requests, run as a daemon on its
// own simulated host.
#pragma once

#include <string>

#include "platform/core/runtime.h"
#include "platform/corba/giop.h"

namespace cqos::corba {

class SmartAgent : public plat::NameServer {
 public:
  /// Conventional endpoint id the agent listens on, given its host.
  static std::string endpoint_for_host(const std::string& host) {
    return host + "/osagent";
  }

  SmartAgent(net::Transport& network, const std::string& host)
      : NameServer(network, endpoint_for_host(host), giop_codec()) {}
};

}  // namespace cqos::corba
