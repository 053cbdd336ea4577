#include "micro/security.h"

#include <sstream>

namespace cqos::micro {
namespace {

constexpr const char* kDefaultDesKey = "133457799bbcdff1";
constexpr const char* kDefaultIv = "0001020304050607";
constexpr const char* kDefaultMacKey = "6b6579206b6579206b657921";  // "key key key!"

Bytes encode_value(const Value& v) {
  ByteWriter w(v.encoded_size());
  v.encode(w);
  return std::move(w).take();
}

Value decode_value(const Bytes& data) {
  ByteReader r(data);
  Value v = Value::decode(r);
  if (!r.done()) throw DecodeError("trailing bytes after value");
  return v;
}

}  // namespace

Bytes parse_hex_key(const std::string& hex, const std::string& what) {
  if (hex.empty() || hex.size() % 2 != 0) {
    throw ConfigError(what + ": hex key must have even length");
  }
  auto nibble = [&](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw ConfigError(what + ": invalid hex digit '" + std::string(1, c) + "'");
  };
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(nibble(hex[i]) * 16 +
                                            nibble(hex[i + 1])));
  }
  return out;
}

crypto::Sha256Digest request_mac(const Bytes& key, const Request& req) {
  std::shared_ptr<const Bytes> params = req.encoded_params();
  ByteWriter w(8 + varint_size(req.method.size()) + req.method.size() +
               varint_size(params->size()) + params->size());
  w.put_u64(req.id);
  w.put_string(req.method);
  w.put_blob(*params);
  return crypto::hmac_sha256(key, w.data());
}

// The MAC input is id || blob(encoding of result); the blob is written as
// its length varint followed by the encoding made in place.
crypto::Sha256Digest reply_mac(const Bytes& key, std::uint64_t id,
                               const Value& result) {
  const std::size_t n = result.encoded_size();
  ByteWriter w(8 + varint_size(n) + n);
  w.put_u64(id);
  w.put_varint(n);
  result.encode(w);
  return crypto::hmac_sha256(key, w.data());
}

// --- DesPrivacy ------------------------------------------------------------------

void DesPrivacyClient::init(cactus::CompositeProtocol& proto) {
  client_holder(proto);
  // Validate the key eagerly (throws on a bad length) and prime the
  // schedule cache. Handlers capture the raw key and go through
  // Des::for_key() per operation, a thread-local memo hit.
  crypto::Des::for_key(key_);
  Bytes key = key_;
  Bytes iv = iv_;
  Duration emu = emu_per_op_;

  // encryptRequest: first handler on readyToSend. once() makes concurrent
  // ActiveRep activations encrypt exactly once and ensures the ciphertext is
  // visible before any invoker proceeds.
  bind_tracked(proto,
      ev::kReadyToSend, "encryptRequest",
      [key, iv, emu](cactus::EventContext& ctx) {
        auto inv = ctx.dyn<InvocationPtr>();
        RequestPtr req = inv->request;
        req->once("des.enc", [&] {
          std::shared_ptr<const Bytes> plain = req->encoded_params();
          req->set_encrypted_params(crypto::des_cbc_encrypt(key, iv, *plain));
          req->piggyback[pbkey::kEncrypted] = Value(true);
          if (emu > Duration::zero()) std::this_thread::sleep_for(emu);
        });
      },
      order::kPrivacyEncrypt);

  // decryptReply: first handler on invokeSuccess (per-invocation result).
  bind_tracked(proto,
      ev::kInvokeSuccess, "decryptReply",
      [key, iv, emu](cactus::EventContext& ctx) {
        auto inv = ctx.dyn<InvocationPtr>();
        if (!inv->request->has_flag("des.enc")) return;
        try {
          Bytes plain = crypto::des_cbc_decrypt(key, iv, inv->result.as_bytes());
          inv->result = decode_value(plain);
          if (emu > Duration::zero()) std::this_thread::sleep_for(emu);
        } catch (const Error& e) {
          inv->success = false;
          inv->error = std::string("des_privacy: reply decryption failed: ") +
                       e.what();
          inv->request->reclassify_success_as_failure();
          ctx.protocol().raise(ev::kInvokeFailure, inv);
          ctx.halt();
        }
      },
      order::kPrivacyDecryptReply);
}

std::unique_ptr<cactus::MicroProtocol> DesPrivacyClient::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<DesPrivacyClient>(
      parse_hex_key(spec.param("key", kDefaultDesKey), "des_privacy.key"),
      parse_hex_key(spec.param("iv", kDefaultIv), "des_privacy.iv"),
      us(spec.param_int("emulate_us_per_op", 0)));
}

MicroManifest DesPrivacyClient::manifest() {
  return MicroManifest("des_privacy", Side::kClient)
      .binds(ev::kReadyToSend)
      .binds(ev::kInvokeSuccess)
      .raises(ev::kInvokeFailure)
      .writes_pb(pbkey::kEncrypted)
      .config("key")
      .config("iv")
      .config("emulate_us_per_op")
      .constraint("requires-peer:des_privacy");
}

void DesPrivacyServer::init(cactus::CompositeProtocol& proto) {
  server_holder(proto);
  crypto::Des::for_key(key_);  // validate + prime the schedule cache
  Bytes key = key_;
  Bytes iv = iv_;
  const bool require = require_;
  Duration emu = emu_per_op_;

  // decryptParams: overrides the parameter extraction of the base
  // getParameters by transforming the parameters in place first. Plaintext
  // requests are rejected unless require=false (confidentiality must not be
  // client-optional); forwarded replica-to-replica requests were already
  // decrypted at the serving replica.
  bind_tracked(proto, 
      ev::kNewServerRequest, "decryptParams",
      [key, iv, require, emu](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        auto it = req->piggyback.find(pbkey::kEncrypted);
        if (it == req->piggyback.end()) {
          if (require && !req->forwarded) {
            req->complete(false, Value(),
                          "des_privacy: plaintext request rejected");
            ctx.halt();
          }
          return;
        }
        try {
          Bytes plain =
              crypto::des_cbc_decrypt(key, iv, req->params().at(0).as_bytes());
          req->set_params(Value::decode_list(plain));
          req->once("des.enc", [] {});  // remember to encrypt the reply
          if (emu > Duration::zero()) std::this_thread::sleep_for(emu);
        } catch (const Error& e) {
          req->complete(false, Value(),
                        std::string("des_privacy: decryption failed: ") +
                            e.what());
          ctx.halt();
        }
      },
      order::kPrivacyCrypt);

  // encryptReply: protect the result before it leaves the Cactus server.
  bind_tracked(proto, 
      ev::kInvokeReturn, "encryptReply",
      [key, iv, emu](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        if (!req->has_flag("des.enc") || !req->staged_success()) return;
        Bytes plain = encode_value(req->staged_result());
        req->set_staged_result(Value(crypto::des_cbc_encrypt(key, iv, plain)));
        if (emu > Duration::zero()) std::this_thread::sleep_for(emu);
      },
      order::kPrivacyEncryptReply);
}

std::unique_ptr<cactus::MicroProtocol> DesPrivacyServer::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<DesPrivacyServer>(
      parse_hex_key(spec.param("key", kDefaultDesKey), "des_privacy.key"),
      parse_hex_key(spec.param("iv", kDefaultIv), "des_privacy.iv"),
      spec.param("require", "true") != "false",
      us(spec.param_int("emulate_us_per_op", 0)));
}

MicroManifest DesPrivacyServer::manifest() {
  return MicroManifest("des_privacy", Side::kServer)
      .binds(ev::kNewServerRequest)
      .binds(ev::kInvokeReturn)
      .reads_pb(pbkey::kEncrypted)
      .config("key")
      .config("iv")
      .config("require")
      .config("emulate_us_per_op")
      .constraint("requires-peer:des_privacy");
}

// --- SignedIntegrity --------------------------------------------------------------

void IntegrityClient::init(cactus::CompositeProtocol& proto) {
  client_holder(proto);
  Bytes key = key_;

  // signRequest: after encryption (the MAC covers the ciphertext).
  bind_tracked(proto, 
      ev::kReadyToSend, "signRequest",
      [key](cactus::EventContext& ctx) {
        auto inv = ctx.dyn<InvocationPtr>();
        RequestPtr req = inv->request;
        req->once("hmac.signed", [&] {
          crypto::Sha256Digest mac = request_mac(key, *req);
          req->piggyback[pbkey::kHmac] = Value(Bytes(mac.begin(), mac.end()));
        });
      },
      order::kIntegritySign);

  // verifyReply: before decryption; tampered replies become failures.
  bind_tracked(proto, 
      ev::kInvokeSuccess, "verifyReply",
      [key](cactus::EventContext& ctx) {
        auto inv = ctx.dyn<InvocationPtr>();
        bool ok = false;
        auto it = inv->reply_piggyback.find(pbkey::kHmac);
        if (it != inv->reply_piggyback.end()) {
          const Bytes& mac_bytes = it->second.as_bytes();
          crypto::Sha256Digest expected =
              reply_mac(key, inv->request->id, inv->result);
          if (mac_bytes.size() == expected.size()) {
            crypto::Sha256Digest received{};
            std::copy(mac_bytes.begin(), mac_bytes.end(), received.begin());
            ok = crypto::digest_equal(expected, received);
          }
        }
        if (!ok) {
          inv->success = false;
          inv->error = "integrity: reply verification failed";
          inv->request->reclassify_success_as_failure();
          ctx.protocol().raise(ev::kInvokeFailure, inv);
          ctx.halt();
        }
      },
      order::kIntegrityVerifyReply);
}

std::unique_ptr<cactus::MicroProtocol> IntegrityClient::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<IntegrityClient>(
      parse_hex_key(spec.param("key", kDefaultMacKey), "integrity.key"));
}

MicroManifest IntegrityClient::manifest() {
  // after:des_privacy — the MAC covers the ciphertext (encrypt-then-MAC),
  // so the stack reads in processing order when both are configured.
  return MicroManifest("integrity", Side::kClient)
      .binds(ev::kReadyToSend)
      .binds(ev::kInvokeSuccess)
      .raises(ev::kInvokeFailure)
      .writes_pb(pbkey::kHmac)
      .config("key")
      .constraint("requires-peer:integrity")
      .constraint("after:des_privacy");
}

void IntegrityServer::init(cactus::CompositeProtocol& proto) {
  server_holder(proto);
  Bytes key = key_;

  // verifyRequest: before decryption; rejects tampered or unsigned requests.
  bind_tracked(proto, 
      ev::kNewServerRequest, "verifyRequest",
      [key](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        if (req->forwarded) return;  // replica-to-replica transfer is trusted
        bool ok = false;
        auto it = req->piggyback.find(pbkey::kHmac);
        if (it != req->piggyback.end()) {
          const Bytes& mac_bytes = it->second.as_bytes();
          crypto::Sha256Digest expected = request_mac(key, *req);
          if (mac_bytes.size() == expected.size()) {
            crypto::Sha256Digest received{};
            std::copy(mac_bytes.begin(), mac_bytes.end(), received.begin());
            ok = crypto::digest_equal(expected, received);
          }
        }
        if (!ok) {
          req->complete(false, Value(),
                        "integrity: request verification failed");
          ctx.halt();
        }
      },
      order::kIntegrityVerify);

  // signReply: after reply encryption.
  bind_tracked(proto, 
      ev::kInvokeReturn, "signReply",
      [key](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        if (!req->staged_success()) return;
        crypto::Sha256Digest mac =
            reply_mac(key, req->id, req->staged_result());
        req->merge_reply_piggyback(
            {{pbkey::kHmac, Value(Bytes(mac.begin(), mac.end()))}});
      },
      order::kIntegritySignReply);
}

std::unique_ptr<cactus::MicroProtocol> IntegrityServer::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<IntegrityServer>(
      parse_hex_key(spec.param("key", kDefaultMacKey), "integrity.key"));
}

MicroManifest IntegrityServer::manifest() {
  return MicroManifest("integrity", Side::kServer)
      .binds(ev::kNewServerRequest)
      .binds(ev::kInvokeReturn)
      .reads_pb(pbkey::kHmac)
      .writes_pb(pbkey::kHmac)
      .config("key")
      .constraint("requires-peer:integrity")
      .constraint("after:des_privacy");
}

// --- AccessControl ----------------------------------------------------------------

bool AccessControl::Acl::allows(const std::string& principal,
                                const std::string& method) const {
  auto it = rules.find(principal);
  if (it == rules.end()) return default_allow;
  return it->second.contains("*") || it->second.contains(method);
}

AccessControl::Acl AccessControl::Acl::parse(const std::string& allow,
                                             const std::string& def) {
  Acl acl;
  acl.default_allow = def == "allow";
  std::istringstream entries(allow);
  std::string entry;
  while (std::getline(entries, entry, '|')) {
    if (entry.empty()) continue;
    auto colon = entry.find(':');
    if (colon == std::string::npos) {
      throw ConfigError("access_control: entry '" + entry +
                        "' is not principal:method");
    }
    acl.rules[entry.substr(0, colon)].insert(entry.substr(colon + 1));
  }
  return acl;
}

void AccessControl::init(cactus::CompositeProtocol& proto) {
  server_holder(proto);
  Acl acl = acl_;

  bind_tracked(proto, 
      ev::kReadyToInvoke, "checkAccess",
      [acl](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        if (req->forwarded) return;  // already checked at the serving replica
        std::string principal;
        auto it = req->piggyback.find(pbkey::kPrincipal);
        if (it != req->piggyback.end()) principal = it->second.as_string();
        if (!acl.allows(principal, req->method)) {
          req->complete(false, Value(),
                        "access_control: principal '" + principal +
                            "' may not call " + req->method);
          ctx.halt();
        }
      },
      order::kAccessCheck);
}

std::unique_ptr<cactus::MicroProtocol> AccessControl::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<AccessControl>(
      Acl::parse(spec.param("allow", ""), spec.param("default", "deny")));
}

MicroManifest AccessControl::manifest() {
  // allow is mandatory: with default=deny an empty ACL rejects every call,
  // which is never the intended deployment.
  return MicroManifest("access_control", Side::kServer)
      .binds(ev::kReadyToInvoke)
      .reads_pb(pbkey::kPrincipal)
      .requires_config("allow")
      .config("default");
}

}  // namespace cqos::micro
