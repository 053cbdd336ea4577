// Smart agent: the ORB's location service (modeled on Visibroker's osagent,
// which the paper's prototype used for binding POAs by name).
//
// Servers register (poa_name, object_id) -> IOR; clients look the pair up.
// Runs as a daemon on its own simulated host, answering from its endpoint
// handler on whichever thread delivers.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "net/transport.h"
#include "platform/corba/giop.h"

namespace cqos::corba {

class SmartAgent {
 public:
  /// Conventional endpoint id the agent listens on, given its host.
  static std::string endpoint_for_host(const std::string& host) {
    return host + "/osagent";
  }

  SmartAgent(net::Transport& network, const std::string& host);
  ~SmartAgent();

  SmartAgent(const SmartAgent&) = delete;
  SmartAgent& operator=(const SmartAgent&) = delete;

  const std::string& endpoint_id() const { return endpoint_->id(); }

  void shutdown();

 private:
  void on_message(net::Message&& msg);

  net::Transport& network_;
  std::shared_ptr<net::Endpoint> endpoint_;
  /// Leaf lock: released before the reply is sent.
  Mutex mu_;
  std::map<std::pair<std::string, std::string>, Ior> table_
      CQOS_GUARDED_BY(mu_);
};

}  // namespace cqos::corba
