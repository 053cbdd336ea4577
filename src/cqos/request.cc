#include "cqos/request.h"

#include <atomic>

#include "common/metrics.h"
#include "platform/api.h"

namespace cqos {
namespace {

metrics::Counter& encodes_counter() {
  static metrics::Counter& c =
      metrics::Registry::global().counter("cqos.request.encodes");
  return c;
}

}  // namespace

std::uint64_t Request::next_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Request::Request(std::string object_id_in, std::string method_in,
                 ValueList params_in)
    : id(next_id()),
      object_id(std::move(object_id_in)),
      method(std::move(method_in)),
      params_(std::move(params_in)) {}

void Request::set_params(ValueList params) {
  MutexLock lk(encode_mu_);
  params_ = std::move(params);
  encoded_cache_.reset();
}

void Request::set_encrypted_params(Bytes ciphertext) {
  // The encoding of a one-element [bytes] list is mechanical: count varint,
  // kBytes tag, length varint, payload. Build it directly so replacing the
  // params with ciphertext keeps the cache primed without re-traversal.
  ValueList cipher_params{Value(std::move(ciphertext))};
  ByteWriter w(Value::encoded_list_size(cipher_params));
  w.put_varint(cipher_params.size());
  for (const auto& v : cipher_params) v.encode(w);
  MutexLock lk(encode_mu_);
  params_ = std::move(cipher_params);
  encoded_cache_ = std::make_shared<const Bytes>(std::move(w).take());
}

std::shared_ptr<const Bytes> Request::encoded_params() const {
  MutexLock lk(encode_mu_);
  if (!encoded_cache_) {
    encodes_counter().inc();
    encoded_cache_ = std::make_shared<const Bytes>(Value::encode_list(params_));
  }
  return encoded_cache_;
}

bool Request::complete(bool success, Value result, std::string error) {
  std::vector<DoneHook> hooks;
  {
    MutexLock lk(mu_);
    if (done_) return false;
    done_ = true;
    success_ = success;
    result_ = std::move(result);
    error_ = std::move(error);
    hooks.swap(done_hooks_);
    cv_.notify_all();
  }
  for (DoneHook& hook : hooks) hook(*this);
  return true;
}

void Request::stage(bool success, Value result, std::string error) {
  MutexLock lk(mu_);
  if (done_) return;
  success_ = success;
  result_ = std::move(result);
  error_ = std::move(error);
}

void Request::finish() {
  std::vector<DoneHook> hooks;
  {
    MutexLock lk(mu_);
    if (done_) return;
    done_ = true;
    hooks.swap(done_hooks_);
    cv_.notify_all();
  }
  for (DoneHook& hook : hooks) hook(*this);
}

void Request::when_done(DoneHook hook) {
  {
    MutexLock lk(mu_);
    if (!done_) return done_hooks_.push_back(std::move(hook));
  }
  hook(*this);
}

bool Request::staged_success() const {
  MutexLock lk(mu_);
  return success_;
}

Value Request::staged_result() const {
  MutexLock lk(mu_);
  return result_;
}

std::string Request::staged_error() const {
  MutexLock lk(mu_);
  return error_;
}

void Request::set_staged_result(Value v) {
  MutexLock lk(mu_);
  if (done_) return;
  result_ = std::move(v);
}

bool Request::has_flag(const std::string& flag) const {
  MutexLock lk(flags_mu_);
  return flags_.contains(flag);
}

bool Request::wait(Duration timeout) {
  TimePoint deadline = now() + timeout;
  MutexLock lk(mu_);
  while (!done_) {
    if (now() >= deadline) return false;
    cv_.wait_until(mu_, deadline);
  }
  return true;
}

bool Request::is_done() const {
  MutexLock lk(mu_);
  return done_;
}

bool Request::succeeded() const {
  MutexLock lk(mu_);
  return done_ && success_;
}

Value Request::result() const {
  MutexLock lk(mu_);
  return result_;
}

std::string Request::error() const {
  MutexLock lk(mu_);
  return error_;
}

PiggybackMap Request::reply_piggyback() const {
  MutexLock lk(mu_);
  return reply_pb_;
}

void Request::merge_reply_piggyback(const PiggybackMap& pb) {
  MutexLock lk(mu_);
  for (const auto& [k, v] : pb) reply_pb_[k] = v;
}

void Request::set_expected_replies(int n) {
  MutexLock lk(mu_);
  expected_replies_ = n;
}

int Request::expected_replies() const {
  MutexLock lk(mu_);
  return expected_replies_;
}

Request::Counts Request::record_outcome(const Invocation& inv) {
  MutexLock lk(mu_);
  if (inv.success) {
    ++successes_;
  } else {
    ++failures_;
  }
  return Counts{successes_, failures_, expected_replies_};
}

void Request::reclassify_success_as_failure() {
  MutexLock lk(mu_);
  if (successes_ > 0) {
    --successes_;
    ++failures_;
  }
}

Request::Counts Request::counts() const {
  MutexLock lk(mu_);
  return Counts{successes_, failures_, expected_replies_};
}

void Request::reset(std::string object_id_in, std::string method_in,
                    ValueList params_in) {
  MutexLock fl(flags_mu_);  // hierarchy: flags_mu_ before mu_ before encode_mu_
  MutexLock lk(mu_);
  MutexLock el(encode_mu_);
  flags_.clear();
  id = next_id();
  trace_id = 0;
  object_id = std::move(object_id_in);
  method = std::move(method_in);
  params_ = std::move(params_in);
  encoded_cache_.reset();
  piggyback.clear();
  forwarded = false;
  deadline = TimePoint{};
  done_ = false;
  success_ = false;
  result_ = Value();
  error_.clear();
  reply_pb_.clear();
  done_hooks_.clear();
  expected_replies_ = 1;
  successes_ = 0;
  failures_ = 0;
}

ValueList Request::encode_for_forward() const {
  ByteWriter pb_writer;
  encode_piggyback(pb_writer, piggyback);
  return ValueList{
      Value(static_cast<std::int64_t>(id)),
      Value(method),
      Value(Bytes(*encoded_params())),
      Value(std::move(pb_writer).take()),
  };
}

RequestPtr Request::decode_forwarded(const std::string& object_id,
                                     const ValueList& args) {
  auto req = std::make_shared<Request>();
  req->id = static_cast<std::uint64_t>(args.at(0).as_i64());
  req->object_id = object_id;
  req->method = args.at(1).as_string();
  {
    // The forwarded blob *is* encode_list(params): decode it and prime the
    // cache with the wire bytes so the receiving replica never re-encodes.
    const Bytes& wire = args.at(2).as_bytes();
    MutexLock lk(req->encode_mu_);
    req->params_ = Value::decode_list(wire);
    req->encoded_cache_ = std::make_shared<const Bytes>(wire);
  }
  ByteReader pb_reader(args.at(3).as_bytes());
  req->piggyback = decode_piggyback(pb_reader);
  req->forwarded = true;
  req->priority = plat::piggyback_priority(req->piggyback, req->priority);
  auto trace_it = req->piggyback.find(pbkey::kTraceId);
  if (trace_it != req->piggyback.end()) {
    req->trace_id = static_cast<std::uint64_t>(trace_it->second.as_i64());
  }
  return req;
}

}  // namespace cqos
