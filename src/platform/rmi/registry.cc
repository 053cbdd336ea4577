#include "platform/rmi/registry.h"

#include "common/clock.h"
#include "common/log.h"
#include "platform/rmi/jrmp.h"

namespace cqos::rmi {

Registry::Registry(net::Transport& network, const std::string& host)
    : network_(network),
      endpoint_(network.create_endpoint(endpoint_for_host(host))) {
  endpoint_->set_handler(
      [this](net::Message&& msg) { on_message(std::move(msg)); });
}

Registry::~Registry() { shutdown(); }

void Registry::shutdown() { endpoint_->close(); }

void Registry::on_message(net::Message&& msg) {
  net::PayloadRecycler recycle_payload(msg);
  try {
    ByteReader r(msg.payload);
    Header h = read_header(r);
    switch (h.type) {
      case MsgType::kRegBind: {
        std::string reply_to = r.get_string();
        std::string name = r.get_string();
        std::string target = r.get_string();
        {
          MutexLock lk(mu_);
          bindings_[name] = target;
        }
        ByteWriter w(16);
        begin_message(w, MsgType::kRegAck, h.call_id);
        w.put_u8(1);
        network_.send(endpoint_->id(), reply_to, std::move(w).take());
        break;
      }
      case MsgType::kRegUnbind: {
        std::string reply_to = r.get_string();
        std::string name = r.get_string();
        {
          MutexLock lk(mu_);
          bindings_.erase(name);
        }
        ByteWriter w(16);
        begin_message(w, MsgType::kRegAck, h.call_id);
        w.put_u8(1);
        network_.send(endpoint_->id(), reply_to, std::move(w).take());
        break;
      }
      case MsgType::kRegLookup: {
        std::string reply_to = r.get_string();
        std::string name = r.get_string();
        ByteWriter w(64);
        begin_message(w, MsgType::kRegReply, h.call_id);
        {
          MutexLock lk(mu_);
          auto it = bindings_.find(name);
          if (it == bindings_.end()) {
            w.put_u8(0);
          } else {
            w.put_u8(1);
            w.put_string(it->second);
          }
        }
        network_.send(endpoint_->id(), reply_to, std::move(w).take());
        break;
      }
      default:
        CQOS_LOG_WARN("rmiregistry: unexpected message type");
    }
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR("rmiregistry: bad message: ", e.what());
  }
}

}  // namespace cqos::rmi
