// RMI registry: the bootstrap naming service (java.rmi.Naming analogue).
// Binds flat names to server endpoints: a plat::NameServer spoken to in
// JRMP calls, run as a daemon on its own host.
#pragma once

#include <string>

#include "platform/core/runtime.h"
#include "platform/rmi/jrmp.h"

namespace cqos::rmi {

class Registry : public plat::NameServer {
 public:
  static std::string endpoint_for_host(const std::string& host) {
    return host + "/rmiregistry";
  }

  Registry(net::Transport& network, const std::string& host)
      : NameServer(network, endpoint_for_host(host), jrmp_codec()) {}
};

}  // namespace cqos::rmi
