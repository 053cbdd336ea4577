// The benchmark's own server object: a keyed blob store plus keyed running
// sums. Each closed-loop client owns one key, so a reply can be checked
// against what that client alone wrote.
//
//   put(key, bytes)  -> true      get(key)   -> bytes (empty if never put)
//   add(key, i64)    -> new total total(key) -> total (0 if never added)
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/bytes.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "cqos/servant.h"

namespace perfbench {

class KvServant : public cqos::Servant {
 public:
  cqos::Value dispatch(const std::string& method,
                       const cqos::ValueList& params) override;

  /// Copies of the whole state, for the end-of-run replica comparison.
  std::map<std::string, cqos::Bytes> blobs() const;
  std::map<std::string, std::int64_t> totals() const;
  /// put and add calls applied, for diagnosing diverged replicas.
  std::uint64_t writes() const;

 private:
  mutable cqos::Mutex mu_;
  std::map<std::string, cqos::Bytes> blobs_ CQOS_GUARDED_BY(mu_);
  std::map<std::string, std::int64_t> totals_ CQOS_GUARDED_BY(mu_);
  std::uint64_t writes_ CQOS_GUARDED_BY(mu_) = 0;
};

}  // namespace perfbench
