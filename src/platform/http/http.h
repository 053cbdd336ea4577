// HTTP-style platform: the paper's third middleware shape (§2.1).
//
// "For example, it would be feasible to intercept HTTP requests and replies,
// in which case the TCP socket layer would be viewed as the middleware
// layer." This platform demonstrates exactly that: a text-header/binary-body
// HTTP/1.1-flavoured request/reply protocol with NO naming service at all —
// names are URLs ("http://<host>/<object>") resolved by host convention, the
// way a web deployment would use DNS. The same CQoS stubs, skeletons and
// micro-protocols run over it unchanged, which is the architecture's
// portability claim taken beyond the two platforms of the paper's prototype.
//
// Wire format (one simulated datagram per message):
//   POST /<object> CQOS/1.0\r\n            (request line)
//   X-Call-Id: <id>\r\n
//   X-Reply-To: <endpoint>\r\n
//   X-Method: <method>\r\n
//   X-Piggyback: <hex of encoded piggyback>\r\n
//   Content-Length: <n>\r\n
//   \r\n
//   <binary parameter list>
//
//   CQOS/1.0 200 OK | 500 Application Error\r\n   (response line)
//   X-Call-Id: <id>\r\n
//   X-Piggyback: <hex>\r\n
//   Content-Length: <n>\r\n
//   \r\n
//   <binary result value | error text>
//
// PING /<anything> CQOS/1.0 elicits "CQOS/1.0 204 Alive".
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "platform/core/runtime.h"

namespace cqos::http {

struct HttpConfig : plat::RuntimeConfig {
  /// Host that serves replica i (1-based) of any object. Defaults to the
  /// cluster convention "server<i-1>" — the DNS-style deployment knowledge
  /// a web client would configure.
  std::function<std::string(int replica)> replica_host =
      [](int replica) { return "server" + std::to_string(replica - 1); };
  /// Host that serves non-replicated objects.
  std::string direct_host = "server0";
};

/// The request/reply runtime is plat::Runtime; HTTP adds its text codec and
/// URL naming. The server endpoint is the host's well-known "<host>/http".
class HttpPlatform : public plat::Runtime {
 public:
  HttpPlatform(net::Transport& network, const std::string& host,
               HttpConfig cfg = {});
  ~HttpPlatform() override { shutdown(); }

  std::string name() const override { return "http"; }

  std::string replica_name(const std::string& object_id,
                           int replica) const override {
    return "http://" + cfg_.replica_host(replica) + "/" + object_id +
           "_CQoS_Skeleton_" + std::to_string(replica);
  }

  std::string direct_name(const std::string& object_id) const override {
    return "http://" + cfg_.direct_host + "/" + object_id;
  }

  /// Parses "http://<host>/<object>"; no naming-service round trip.
  std::shared_ptr<plat::ObjectRef> resolve(const std::string& name,
                                           Duration timeout) override;

  /// Registration key is the path component of the URL (or a plain name).
  /// HTTP has no DSI/static distinction; the mode costs nothing.
  void register_servant(const std::string& name,
                        std::shared_ptr<plat::ServantHandler> handler,
                        plat::DispatchMode mode) override;
  void unregister_servant(const std::string& name) override;

 private:
  HttpConfig cfg_;
};

/// The text protocol above as the runtime's codec: the format's only API.
const plat::Codec& http_codec();

}  // namespace cqos::http
