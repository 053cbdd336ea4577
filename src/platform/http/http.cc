#include "platform/http/http.h"

#include <charconv>
#include <sstream>

#include "common/error.h"
#include "common/log.h"
#include "common/priority.h"

namespace cqos::http {

// --- wire format ------------------------------------------------------------------

namespace wire {

std::string to_hex(const Bytes& data) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (auto b : data) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

Bytes from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) throw DecodeError("odd hex length");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw DecodeError("bad hex digit");
  };
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(nibble(hex[i]) * 16 +
                                            nibble(hex[i + 1])));
  }
  return out;
}

namespace {

void append(Bytes& out, std::string_view text) {
  out.insert(out.end(), text.begin(), text.end());
}

Bytes build(const std::string& head,
            const std::vector<std::pair<std::string, std::string>>& headers,
            const Bytes& body) {
  Bytes out;
  append(out, head);
  append(out, "\r\n");
  for (const auto& [key, value] : headers) {
    append(out, key);
    append(out, ": ");
    append(out, value);
    append(out, "\r\n");
  }
  append(out, "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n");
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::string encode_pb_header(const PiggybackMap& pb) {
  ByteWriter w;
  encode_piggyback(w, pb);
  return to_hex(w.data());
}

PiggybackMap decode_pb_header(const std::string& hex) {
  Bytes raw = from_hex(hex);
  ByteReader r(raw);
  return decode_piggyback(r);
}

}  // namespace

Bytes encode_request(std::uint64_t call_id, const std::string& reply_to,
                     const std::string& path, const std::string& method,
                     const PiggybackMap& pb, const ValueList& params) {
  return build("POST /" + path + " CQOS/1.0",
               {{"X-Call-Id", std::to_string(call_id)},
                {"X-Reply-To", reply_to},
                {"X-Method", method},
                {"X-Piggyback", encode_pb_header(pb)}},
               Value::encode_list(params));
}

Bytes encode_response(std::uint64_t call_id, bool ok, const Value& result,
                      const std::string& error, const PiggybackMap& pb) {
  Bytes body;
  if (ok) {
    ByteWriter w;
    result.encode(w);
    body = std::move(w).take();
  } else {
    body.assign(error.begin(), error.end());
  }
  return build(ok ? "CQOS/1.0 200 OK" : "CQOS/1.0 500 Application Error",
               {{"X-Call-Id", std::to_string(call_id)},
                {"X-Piggyback", encode_pb_header(pb)}},
               body);
}

Bytes encode_ping(std::uint64_t call_id, const std::string& reply_to) {
  return build("PING / CQOS/1.0",
               {{"X-Call-Id", std::to_string(call_id)},
                {"X-Reply-To", reply_to}},
               {});
}

Bytes encode_pong(std::uint64_t call_id) {
  return build("CQOS/1.0 204 Alive",
               {{"X-Call-Id", std::to_string(call_id)}}, {});
}

Parsed parse(const Bytes& payload) {
  std::string_view text(reinterpret_cast<const char*>(payload.data()),
                        payload.size());
  auto header_end = text.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    throw DecodeError("http: missing header terminator");
  }
  std::string_view head_block = text.substr(0, header_end);
  std::size_t body_offset = header_end + 4;

  // Split header lines.
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < head_block.size()) {
    auto eol = head_block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head_block.size();
    lines.push_back(head_block.substr(pos, eol - pos));
    pos = eol + 2;
  }
  if (lines.empty()) throw DecodeError("http: empty message");

  std::map<std::string, std::string> headers;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    auto colon = lines[i].find(": ");
    if (colon == std::string_view::npos) {
      throw DecodeError("http: malformed header line");
    }
    headers.emplace(std::string(lines[i].substr(0, colon)),
                    std::string(lines[i].substr(colon + 2)));
  }

  auto header = [&](const char* key) -> const std::string& {
    auto it = headers.find(key);
    if (it == headers.end()) {
      throw DecodeError(std::string("http: missing header ") + key);
    }
    return it->second;
  };

  std::size_t content_length = 0;
  {
    const std::string& raw = header("Content-Length");
    auto [ptr, ec] =
        std::from_chars(raw.data(), raw.data() + raw.size(), content_length);
    if (ec != std::errc()) throw DecodeError("http: bad Content-Length");
  }
  if (body_offset + content_length > payload.size()) {
    throw DecodeError("http: truncated body");
  }
  Bytes body(payload.begin() + static_cast<std::ptrdiff_t>(body_offset),
             payload.begin() +
                 static_cast<std::ptrdiff_t>(body_offset + content_length));

  Parsed parsed;
  std::string_view start = lines[0];
  if (start.starts_with("POST /")) {
    parsed.kind = Parsed::Kind::kRequest;
    auto space = start.find(' ', 6);
    if (space == std::string_view::npos) throw DecodeError("http: bad request line");
    parsed.path = std::string(start.substr(6, space - 6));
    parsed.call_id = std::stoull(header("X-Call-Id"));
    parsed.reply_to = header("X-Reply-To");
    parsed.method = header("X-Method");
    parsed.piggyback = decode_pb_header(header("X-Piggyback"));
    parsed.params = Value::decode_list(body);
  } else if (start.starts_with("PING ")) {
    parsed.kind = Parsed::Kind::kPing;
    parsed.call_id = std::stoull(header("X-Call-Id"));
    parsed.reply_to = header("X-Reply-To");
  } else if (start.starts_with("CQOS/1.0 204")) {
    parsed.kind = Parsed::Kind::kPong;
    parsed.call_id = std::stoull(header("X-Call-Id"));
  } else if (start.starts_with("CQOS/1.0 ")) {
    parsed.kind = Parsed::Kind::kResponse;
    parsed.call_id = std::stoull(header("X-Call-Id"));
    parsed.piggyback = decode_pb_header(header("X-Piggyback"));
    parsed.ok = start.substr(9, 3) == "200";
    if (parsed.ok) {
      ByteReader r(body);
      parsed.result = Value::decode(r);
      if (!r.done()) throw DecodeError("http: trailing bytes in result");
    } else {
      parsed.error.assign(body.begin(), body.end());
    }
  } else {
    throw DecodeError("http: unrecognized start line");
  }
  return parsed;
}

}  // namespace wire

// --- HttpObjectRef -----------------------------------------------------------------

plat::Reply HttpObjectRef::invoke(const std::string& method,
                                  const ValueList& params,
                                  const PiggybackMap& piggyback,
                                  Duration timeout) {
  return platform_.call(endpoint_, path_, method, params, piggyback, timeout);
}

bool HttpObjectRef::ping(Duration timeout) {
  return platform_.ping_endpoint(endpoint_, timeout);
}

std::string HttpObjectRef::description() const {
  return "http://" + net::Transport::host_of(endpoint_) + "/" + path_;
}

// --- HttpPlatform ------------------------------------------------------------------

namespace {
std::atomic<int> g_http_instance{0};
}  // namespace

HttpPlatform::HttpPlatform(net::Transport& network, std::string host,
                           HttpConfig cfg)
    : network_(network),
      host_(std::move(host)),
      cfg_(std::move(cfg)),
      workers_(cfg_.server_threads, cfg_.dispatch_classes,
               host_ + "-http-workers") {
  int instance = g_http_instance.fetch_add(1);
  client_ep_ = network_.create_endpoint(host_ + "/httpcli" + std::to_string(instance));
  // The server side listens on the host's well-known port-0 endpoint so
  // other hosts can address it by convention.
  server_ep_ = network_.create_endpoint(host_ + "/http");
  client_ep_->set_handler(
      [this](net::Message&& msg) { on_client_message(std::move(msg)); });
  server_ep_->set_handler(
      [this](net::Message&& msg) { on_server_message(std::move(msg)); });
}

HttpPlatform::~HttpPlatform() { shutdown(); }

const std::string& HttpPlatform::server_endpoint() const {
  return server_ep_->id();
}

void HttpPlatform::shutdown() {
  if (shutdown_.exchange(true)) return;
  // close() waits out in-flight handlers, so none can submit to the pool
  // once it shuts down.
  client_ep_->close();
  server_ep_->close();
  network_.remove_endpoint(server_ep_->id());
  workers_.shutdown();
  pending_.fail_all("http shutdown");
}

std::shared_ptr<plat::ObjectRef> HttpPlatform::resolve(const std::string& name,
                                                       Duration timeout) {
  (void)timeout;  // no naming service: resolution is pure parsing
  std::string rest = name;
  if (rest.starts_with("http://")) rest = rest.substr(7);
  auto slash = rest.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= rest.size()) {
    throw NameNotFound("http names are 'http://<host>/<object>': " + name);
  }
  std::string target_host = rest.substr(0, slash);
  std::string path = rest.substr(slash + 1);
  return std::make_shared<HttpObjectRef>(*this, target_host + "/http", path);
}

void HttpPlatform::register_servant(const std::string& name,
                                    std::shared_ptr<plat::ServantHandler> handler,
                                    plat::DispatchMode mode) {
  (void)mode;  // HTTP has no DSI/static distinction
  std::string path = name;
  if (path.starts_with("http://")) {
    auto slash = path.find('/', 7);
    if (slash == std::string::npos) {
      throw ConfigError("http: cannot register URL without path: " + name);
    }
    path = path.substr(slash + 1);
  }
  MutexLock lk(servants_mu_);
  servants_[path] = std::move(handler);
}

void HttpPlatform::unregister_servant(const std::string& name) {
  std::string path = name;
  if (path.starts_with("http://")) {
    auto slash = path.find('/', 7);
    if (slash != std::string::npos) path = path.substr(slash + 1);
  }
  MutexLock lk(servants_mu_);
  servants_.erase(path);
}

plat::Reply HttpPlatform::call(const std::string& endpoint,
                               const std::string& path,
                               const std::string& method,
                               const ValueList& params, const PiggybackMap& pb,
                               Duration timeout) {
  return pending_.call(timeout, [&](std::uint64_t id) {
    return network_.send(
        client_ep_->id(), endpoint,
        wire::encode_request(id, client_ep_->id(), path, method, pb, params));
  });
}

bool HttpPlatform::ping_endpoint(const std::string& endpoint, Duration timeout) {
  return pending_.call(timeout, [&](std::uint64_t id) {
    return network_.send(client_ep_->id(), endpoint,
                         wire::encode_ping(id, client_ep_->id()));
  }).ok();
}

void HttpPlatform::on_client_message(net::Message&& msg) {
  net::PayloadRecycler recycle_payload(msg);
  try {
    wire::Parsed parsed = wire::parse(msg.payload);
    plat::Reply reply;
    switch (parsed.kind) {
      case wire::Parsed::Kind::kResponse:
        reply.status = parsed.ok ? plat::ReplyStatus::kOk
                                 : plat::ReplyStatus::kAppError;
        reply.result = std::move(parsed.result);
        reply.error = std::move(parsed.error);
        reply.piggyback = std::move(parsed.piggyback);
        break;
      case wire::Parsed::Kind::kPong:
        reply.status = plat::ReplyStatus::kOk;
        break;
      default:
        CQOS_LOG_WARN("http client handler: unexpected message kind");
        return;
    }
    pending_.complete(parsed.call_id, std::move(reply));
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR("http client handler: ", e.what());
  }
}

void HttpPlatform::on_server_message(net::Message&& msg) {
  net::PayloadRecycler recycle_payload(msg);
  try {
    wire::Parsed parsed = wire::parse(msg.payload);
    if (parsed.kind == wire::Parsed::Kind::kPing) {
      network_.send(server_ep_->id(), parsed.reply_to,
                    wire::encode_pong(parsed.call_id));
      return;
    }
    if (parsed.kind != wire::Parsed::Kind::kRequest) {
      CQOS_LOG_WARN("http server handler: unexpected message kind");
      return;
    }
    // Classify by the piggybacked priority before a worker is committed;
    // legacy single-queue mode never rejects.
    int prio = plat::piggyback_priority(parsed.piggyback, kNormalPriority);
    std::uint64_t call_id = parsed.call_id;
    std::string reply_to = parsed.reply_to;
    auto res = plat::dispatch_request(
        workers_, prio, [this, parsed = std::move(parsed)]() mutable {
          dispatch(parsed.call_id, parsed.reply_to, parsed.path,
                   parsed.method, std::move(parsed.piggyback),
                   std::move(parsed.params));
        });
    if (res == cactus::SubmitResult::kRejected) {
      PiggybackMap pb;
      pb[plat::kStatusPiggybackKey] = Value(plat::kStatusOverloadRejected);
      network_.send(server_ep_->id(), reply_to,
                    wire::encode_response(
                        call_id, false, Value(),
                        std::string(status::kOverloadRejected) +
                            ": http dispatch queue full",
                        pb));
    }
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR("http server handler: ", e.what());
  }
}

void HttpPlatform::dispatch(std::uint64_t call_id, const std::string& reply_to,
                            const std::string& path, const std::string& method,
                            PiggybackMap piggyback, ValueList params) {
  std::shared_ptr<plat::ServantHandler> handler;
  {
    MutexLock lk(servants_mu_);
    auto it = servants_.find(path);
    if (it != servants_.end()) handler = it->second;
  }
  Bytes frame;
  if (!handler) {
    frame = wire::encode_response(call_id, false, Value(),
                                  "404 Not Found: /" + path, {});
  } else {
    plat::Reply out =
        handler->handle(method, std::move(params), std::move(piggyback));
    frame = wire::encode_response(call_id, out.ok(), out.result, out.error,
                                  out.piggyback);
  }
  network_.send(server_ep_->id(), reply_to, std::move(frame));
}

}  // namespace cqos::http
