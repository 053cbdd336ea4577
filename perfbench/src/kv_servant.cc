#include "kv_servant.h"

#include "common/error.h"

namespace perfbench {

using cqos::Value;

Value KvServant::dispatch(const std::string& method,
                          const cqos::ValueList& params) {
  const std::string& key = params.at(0).as_string();
  cqos::MutexLock lk(mu_);
  if (method == "put") {
    blobs_[key] = params.at(1).as_bytes();
    ++writes_;
    return Value(true);
  }
  if (method == "get") {
    auto it = blobs_.find(key);
    return Value(it == blobs_.end() ? cqos::Bytes{} : it->second);
  }
  if (method == "add") {
    std::int64_t& total = totals_[key];
    total += params.at(1).as_i64();
    ++writes_;
    return Value(total);
  }
  if (method == "total") {
    auto it = totals_.find(key);
    return Value(it == totals_.end() ? std::int64_t{0} : it->second);
  }
  throw cqos::Error("KvServant: no such method: " + method);
}

std::map<std::string, cqos::Bytes> KvServant::blobs() const {
  cqos::MutexLock lk(mu_);
  return blobs_;
}

std::map<std::string, std::int64_t> KvServant::totals() const {
  cqos::MutexLock lk(mu_);
  return totals_;
}

std::uint64_t KvServant::writes() const {
  cqos::MutexLock lk(mu_);
  return writes_;
}

}  // namespace perfbench
