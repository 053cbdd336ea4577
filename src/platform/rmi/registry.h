// RMI registry: the bootstrap naming service (java.rmi.Naming analogue).
// Binds flat names to server endpoints; runs as a daemon on its own host,
// answering from its endpoint handler on whichever thread delivers.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace cqos::rmi {

class Registry {
 public:
  static std::string endpoint_for_host(const std::string& host) {
    return host + "/rmiregistry";
  }

  Registry(net::Transport& network, const std::string& host);
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  const std::string& endpoint_id() const { return endpoint_->id(); }

  void shutdown();

 private:
  void on_message(net::Message&& msg);

  net::Transport& network_;
  std::shared_ptr<net::Endpoint> endpoint_;
  /// Leaf lock: released before the reply is sent.
  Mutex mu_;
  std::map<std::string, std::string> bindings_
      CQOS_GUARDED_BY(mu_);  // name -> server endpoint
};

}  // namespace cqos::rmi
