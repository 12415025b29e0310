#ifndef KEYSTONE_SERVE_REQUEST_H_
#define KEYSTONE_SERVE_REQUEST_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/data/dist_dataset.h"

namespace keystone {
namespace serve {

/// One single-row apply request as the load generator hands it to the
/// server: which tenant, when (virtual seconds), and which payload row of
/// the tenant's codec to featurize.
struct ServeRequest {
  int tenant = -1;
  /// Request id, unique per tenant, assigned by the load source.
  uint64_t id = 0;
  /// Closed-loop user tag (source-private; -1 for open-loop traffic).
  int user = -1;
  /// Arrival timestamp on the virtual-time axis.
  double arrival_seconds = 0.0;
  /// Index into the tenant codec's payload universe.
  size_t payload = 0;
};

/// Why an arrival was shed instead of admitted.
enum class RejectReason {
  kNone,
  kQueueFull,       // bounded queue at depth
  kPredictedCost,   // predicted latency exceeded the admission budget
  kErrorBudget,     // tenant burning its SLO error budget too fast
  kMalformed,       // unknown tenant or payload outside the codec's universe
};

inline const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kPredictedCost:
      return "predicted-cost";
    case RejectReason::kErrorBudget:
      return "error-budget";
    case RejectReason::kMalformed:
      return "malformed";
  }
  return "?";
}

/// The server's answer to one request: admission outcome, the virtual-time
/// trajectory (arrival -> dispatch -> completion), SLO attainment, and the
/// encoded output row. Responses are emitted in deterministic event order;
/// concatenating `output` fields yields the byte-identical response stream
/// the serving tests compare across thread counts.
struct ServeResponse {
  int tenant = -1;
  uint64_t id = 0;
  int user = -1;
  bool accepted = false;
  RejectReason reject = RejectReason::kNone;

  double arrival_seconds = 0.0;
  double dispatch_seconds = 0.0;    // micro-batch service start
  double completion_seconds = 0.0;  // == arrival for rejected requests
  double latency_seconds = 0.0;
  bool slo_met = false;

  uint64_t batch_id = 0;
  size_t batch_size = 0;
  std::string output;  // encoded sink row ("" for rejected requests)
};

/// Bridges the type-erased server to a tenant's typed request/response
/// schema: materializes a micro-batch dataset from payload indices and
/// encodes sink rows to stable text. Implementations must be deterministic
/// functions of their inputs — the byte-identity guarantee rests on it.
class RequestCodec {
 public:
  virtual ~RequestCodec() = default;

  /// Size of the payload universe requests may index into.
  virtual size_t NumPayloads() const = 0;

  /// Builds the micro-batch dataset for the given payload rows. The
  /// partitioning must not depend on ambient state (pool size, load), only
  /// on the batch itself.
  virtual AnyDataset MakeBatch(const std::vector<size_t>& payloads) const = 0;

  /// Encodes every row of a batch output, in row order.
  virtual std::vector<std::string> EncodeBatch(
      const AnyDataset& batch_output) const = 0;
};

/// Round-trippable text for the record types the serving tests and
/// benchmarks use. %.17g preserves doubles exactly, so equal outputs have
/// equal encodings and vice versa.
inline void AppendRecordText(double value, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

inline void AppendRecordText(const std::string& value, std::string* out) {
  *out += value;
}

inline void AppendRecordText(const std::vector<double>& value,
                             std::string* out) {
  for (size_t i = 0; i < value.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendRecordText(value[i], out);
  }
}

/// Typed codec over an in-memory payload universe: requests address rows of
/// `payloads`, batches are DistDataset<A> with a fixed partition cap (so
/// batch content and partitioning are independent of thread count), and
/// outputs are encoded via AppendRecordText overloads.
template <typename A, typename B>
class TypedRequestCodec : public RequestCodec {
 public:
  explicit TypedRequestCodec(std::vector<A> payloads,
                             size_t max_batch_partitions = 8)
      : payloads_(std::move(payloads)),
        max_batch_partitions_(max_batch_partitions) {
    KS_CHECK(!payloads_.empty()) << "codec needs a non-empty payload universe";
    KS_CHECK_GT(max_batch_partitions_, 0u);
  }

  size_t NumPayloads() const override { return payloads_.size(); }

  AnyDataset MakeBatch(const std::vector<size_t>& payloads) const override {
    KS_CHECK(!payloads.empty());
    std::vector<A> rows;
    rows.reserve(payloads.size());
    for (size_t index : payloads) {
      KS_CHECK(index < payloads_.size())
          << "request payload " << index << " outside the universe";
      rows.push_back(payloads_[index]);
    }
    const size_t parts = std::min(max_batch_partitions_, rows.size());
    return DistDataset<A>::Partitioned(std::move(rows), parts);
  }

  std::vector<std::string> EncodeBatch(
      const AnyDataset& batch_output) const override {
    const auto typed = DistDataset<B>::Cast(batch_output);
    std::vector<std::string> rows;
    rows.reserve(typed->NumRecords());
    for (const auto& partition : typed->partitions()) {
      for (const B& record : partition) {
        std::string text;
        AppendRecordText(record, &text);
        rows.push_back(std::move(text));
      }
    }
    return rows;
  }

 private:
  std::vector<A> payloads_;
  size_t max_batch_partitions_;
};

}  // namespace serve
}  // namespace keystone

#endif  // KEYSTONE_SERVE_REQUEST_H_
