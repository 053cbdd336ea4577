#include "platform/http/http.h"

#include <charconv>

#include "common/error.h"

namespace cqos::http {

// --- wire format ------------------------------------------------------------------

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

/// The piggyback map in the Value codec's format, as lowercase hex.
std::string piggyback_to_hex(const PiggybackMap& pb) {
  static const char* digits = "0123456789abcdef";
  ByteWriter w;
  encode_piggyback(w, pb);
  std::string out;
  out.reserve(w.size() * 2);
  for (auto b : w.data()) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

PiggybackMap piggyback_from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) throw DecodeError("odd hex length");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw DecodeError("bad hex digit");
  };
  Bytes raw;
  raw.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    raw.push_back(static_cast<std::uint8_t>(nibble(hex[i]) * 16 +
                                            nibble(hex[i + 1])));
  }
  ByteReader r(raw);
  return decode_piggyback(r);
}

class HttpCodec : public plat::Codec {
 public:
  plat::Frame decode(const Bytes& payload) const override {
    std::string_view text(reinterpret_cast<const char*>(payload.data()),
                          payload.size());
    auto header_end = text.find("\r\n\r\n");
    if (header_end == std::string_view::npos) {
      throw DecodeError("http: missing header terminator");
    }
    std::size_t body_offset = header_end + 4;

    // The start line, then "Key: value" header lines.
    std::string_view start = text.substr(0, text.find("\r\n"));
    std::map<std::string, std::string, std::less<>> headers;
    for (std::size_t pos = start.size() + 2; pos < header_end;) {
      std::size_t eol = text.find("\r\n", pos);
      std::string_view line = text.substr(pos, eol - pos);
      auto colon = line.find(": ");
      if (colon == std::string_view::npos) {
        throw DecodeError("http: malformed header line");
      }
      // A repeated key is ambiguous (which Content-Length frames the
      // body?), so it is rejected, as the JRMP and CDR maps do.
      if (!headers.emplace(line.substr(0, colon), line.substr(colon + 2))
               .second) {
        throw DecodeError("http: duplicate header " +
                          std::string(line.substr(0, colon)));
      }
      pos = eol + 2;
    }

    auto header = [&](const char* key) -> std::string& {
      auto it = headers.find(key);
      if (it == headers.end()) {
        throw DecodeError(std::string("http: missing header ") + key);
      }
      return it->second;
    };

    // A whole-field decimal, or DecodeError (no std::stoull exceptions).
    auto number = [&](const char* key) -> std::uint64_t {
      const std::string& raw = header(key);
      std::uint64_t value = 0;
      auto [ptr, ec] =
          std::from_chars(raw.data(), raw.data() + raw.size(), value);
      if (ec != std::errc() || ptr != raw.data() + raw.size()) {
        throw DecodeError(std::string("http: bad ") + key);
      }
      return value;
    };

    std::uint64_t content_length = number("Content-Length");
    if (content_length > payload.size() - body_offset) {
      throw DecodeError("http: truncated body");
    }
    auto body = std::span(payload).subspan(body_offset, content_length);

    const std::uint64_t id = number("X-Call-Id");
    if (start.starts_with("POST /")) {
      auto space = start.find(' ', 6);
      if (space == std::string_view::npos) {
        throw DecodeError("http: bad request line");
      }
      std::string path(start.substr(6, space - 6));
      return plat::Frame::request(
          id, std::move(header("X-Reply-To")), std::move(path),
          std::move(header("X-Method")),
          piggyback_from_hex(header("X-Piggyback")), Value::decode_list(body));
    }
    if (start.starts_with("PING ")) {
      return plat::Frame::ping(id, std::move(header("X-Reply-To")));
    }
    if (start.starts_with("CQOS/1.0 204")) return plat::Frame::answer(id, true);
    if (!start.starts_with("CQOS/1.0 ")) {
      throw DecodeError("http: unrecognized start line");
    }
    PiggybackMap pb = piggyback_from_hex(header("X-Piggyback"));
    if (start.substr(9, 3) != "200") {
      return plat::Frame::answer(id, false, {},
                                 std::string(body.begin(), body.end()),
                                 std::move(pb));
    }
    ByteReader r(body);
    Value result = Value::decode(r);
    if (!r.done()) throw DecodeError("http: trailing bytes in result");
    return plat::Frame::answer(id, true, std::move(result), {}, std::move(pb));
  }

  Bytes encode_request(std::uint64_t id, const std::string& reply_to,
                       const std::string& target, const std::string& method,
                       const PiggybackMap& pb,
                       const ValueList& params) const override {
    return build("POST /" + target + " CQOS/1.0",
                 {{"X-Call-Id", std::to_string(id)},
                  {"X-Reply-To", reply_to},
                  {"X-Method", method},
                  {"X-Piggyback", piggyback_to_hex(pb)}},
                 Value::encode_list(params));
  }
  Bytes encode_reply(std::uint64_t id,
                     const plat::Reply& reply) const override {
    Bytes body;
    if (reply.ok()) {
      ByteWriter w;
      reply.result.encode(w);
      body = std::move(w).take();
    } else {
      body.assign(reply.error.begin(), reply.error.end());
    }
    return build(reply.ok() ? "CQOS/1.0 200 OK"
                            : "CQOS/1.0 500 Application Error",
                 {{"X-Call-Id", std::to_string(id)},
                  {"X-Piggyback", piggyback_to_hex(reply.piggyback)}},
                 body);
  }
  Bytes encode_ping(std::uint64_t id,
                    const std::string& reply_to) const override {
    return build("PING / CQOS/1.0",
                 {{"X-Call-Id", std::to_string(id)}, {"X-Reply-To", reply_to}},
                 {});
  }
  Bytes encode_pong(std::uint64_t id) const override {
    return build("CQOS/1.0 204 Alive", {{"X-Call-Id", std::to_string(id)}},
                 {});
  }
  std::string not_found(const std::string& target) const override {
    return "404 Not Found: /" + target;
  }
};

}  // namespace

const plat::Codec& http_codec() {
  static const HttpCodec codec;
  return codec;
}

// --- HttpPlatform ------------------------------------------------------------------

namespace {

/// The path of "http://<host>/<path>"; `name` itself when it is not a URL
/// with a path.
std::string url_path(const std::string& name) {
  auto slash = name.starts_with("http://") ? name.find('/', 7)
                                           : std::string::npos;
  return slash == std::string::npos ? name : name.substr(slash + 1);
}

}  // namespace

HttpPlatform::HttpPlatform(net::Transport& network, const std::string& host,
                           HttpConfig cfg)
    : Runtime(network, host, "http", http_codec(), cfg, "", {}),
      cfg_(std::move(cfg)) {}

std::shared_ptr<plat::ObjectRef> HttpPlatform::resolve(const std::string& name,
                                                       Duration timeout) {
  (void)timeout;  // no naming service: resolution is pure parsing
  std::string rest = name;
  if (rest.starts_with("http://")) rest = rest.substr(7);
  auto slash = rest.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= rest.size()) {
    throw NameNotFound("http names are 'http://<host>/<object>': " + name);
  }
  return make_ref(rest.substr(0, slash) + "/http", rest.substr(slash + 1));
}

void HttpPlatform::register_servant(
    const std::string& name, std::shared_ptr<plat::ServantHandler> handler,
    plat::DispatchMode mode) {
  if (name.starts_with("http://") && name.find('/', 7) == std::string::npos) {
    throw ConfigError("http: cannot register URL without path: " + name);
  }
  Runtime::register_servant(url_path(name), std::move(handler), mode);
}

void HttpPlatform::unregister_servant(const std::string& name) {
  Runtime::unregister_servant(url_path(name));
}

}  // namespace cqos::http
