#include "platform/corba/agent.h"

#include "common/log.h"

namespace cqos::corba {

SmartAgent::SmartAgent(net::Transport& network, const std::string& host)
    : network_(network),
      endpoint_(network.create_endpoint(endpoint_for_host(host))) {
  endpoint_->set_handler(
      [this](net::Message&& msg) { on_message(std::move(msg)); });
}

SmartAgent::~SmartAgent() { shutdown(); }

void SmartAgent::shutdown() { endpoint_->close(); }

void SmartAgent::on_message(net::Message&& msg) {
  net::PayloadRecycler recycle_payload(msg);
  try {
    ByteReader r(msg.payload);
    GiopHeader header = read_frame(r);
    switch (header.type) {
      case MsgType::kAgentRegister: {
        AgentRequest req = decode_agent_request(r, header.type);
        {
          MutexLock lk(mu_);
          table_[{req.poa_name, req.object_id}] = req.ior;
        }
        network_.send(endpoint_->id(), req.reply_to,
                      encode_agent_ack(header.request_id, true));
        break;
      }
      case MsgType::kAgentUnregister: {
        AgentRequest req = decode_agent_request(r, header.type);
        {
          MutexLock lk(mu_);
          table_.erase({req.poa_name, req.object_id});
        }
        network_.send(endpoint_->id(), req.reply_to,
                      encode_agent_ack(header.request_id, true));
        break;
      }
      case MsgType::kAgentLookup: {
        AgentRequest req = decode_agent_request(r, header.type);
        Ior ior;
        {
          MutexLock lk(mu_);
          auto it = table_.find({req.poa_name, req.object_id});
          if (it != table_.end()) ior = it->second;
        }
        network_.send(endpoint_->id(), req.reply_to,
                      encode_agent_lookup_reply(header.request_id, ior));
        break;
      }
      default:
        CQOS_LOG_WARN("osagent: unexpected message type");
    }
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR("osagent: bad message: ", e.what());
  }
}

}  // namespace cqos::corba
