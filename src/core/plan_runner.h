#ifndef KEYSTONE_CORE_PLAN_RUNNER_H_
#define KEYSTONE_CORE_PLAN_RUNNER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/exec_context.h"
#include "src/core/physical_plan.h"
#include "src/data/data_stats.h"
#include "src/data/dist_dataset.h"
#include "src/obs/trace.h"
#include "src/sim/faults/recovery.h"

namespace keystone {

/// Invoked by profile-mode runs for optimizable nodes whose option has not
/// been chosen yet, immediately before the node executes. `in_stats`
/// describes the sampled input actually flowing into the node; the hook
/// typically scales it to full cardinality, scores the options, and calls
/// PhysicalPlan::SetChosenOption (operator selection, §3).
using SelectHook = std::function<void(int id, const DataStats& in_stats)>;

/// What one Run produced, for the executor's accounting.
struct RunResult {
  /// Fitted models keyed by estimator node id (fit mode; sample models in
  /// profile modes).
  std::map<int, std::shared_ptr<TransformerBase>> models;
  /// Per-node modeled virtual seconds of this pass, indexed by node id.
  std::vector<double> node_seconds;
  /// Per-node output statistics, indexed by node id (estimators: empty —
  /// their output is a model).
  std::vector<DataStats> out_stats;
  /// Per-node fault-recovery virtual seconds charged to the "Recovery"
  /// ledger stage, indexed by node id. All zero unless the ExecContext
  /// carries an enabled FaultPlan.
  std::vector<double> recovery_seconds;
};

/// The single execution engine for PhysicalPlans. Every mode — the two
/// sampling passes (§4.1), the full-scale training pass, and
/// fitted-pipeline apply — runs one pass body, one scheduler, and one
/// charging path per kind of work, with one trace span, one metrics
/// update, and one profile-store observation per node execution.
///
/// The scheduler runs the lowest ready node id first and starts helper
/// threads only while independent branches are ready at once (fit and
/// apply, under OptimizationConfig::parallel_branches); profile passes run
/// on the calling thread in id order so operator selection sees nodes in
/// topological order. Virtual seconds are computed per node from the pure
/// cost model, and all observable effects — trace spans, ledger charges,
/// metrics, store writes — are buffered per node and flushed in node-id
/// order after the pass, so every schedule is bit-identical.
class PlanRunner {
 public:
  PlanRunner(PhysicalPlan* plan, ExecContext* ctx);

  /// Executes the training path in `mode` (profile-small / profile-large /
  /// fit). `select` fires per unchosen optimizable node in profile modes.
  RunResult Run(ExecMode mode, const SelectHook& select = nullptr);

  /// Executes the runtime path on `input`, charging each node to the
  /// "Eval" ledger stage. `models` supplies the fitted models for
  /// apply-model nodes. Returns the sink's output.
  AnyDataset RunApply(
      const AnyDataset& input,
      const std::map<int, std::shared_ptr<TransformerBase>>& models);

  /// Emits one synthetic trace span per train node for a profile phase
  /// that was skipped (reuse_stored_profiles), reconstructed from the
  /// plan's ProfileEntry, so plan reports and metrics do not silently omit
  /// those nodes.
  void EmitSyntheticProfileSpans(ExecMode mode);

 private:
  /// Everything one node execution produced, buffered so effects can be
  /// flushed deterministically in node-id order after the pass.
  struct NodeOutcome {
    bool executed = false;
    obs::TraceSpan span;
    DataStats in_stats;   // input stats at the scale the kernel ran
    DataStats out_stats;  // output stats (estimators: default)
    bool record_observation = false;
    std::string op_name;  // physical operator name (store key)
    double seconds = 0.0;  // modeled virtual seconds of this execution
    /// The cost profile `seconds` was modeled from (apply mode charges it
    /// to the "Eval" ledger stage); also the ResourceTimeline's
    /// per-resource split. Sources have none — they occupy disk directly.
    CostProfile charge_cost;
    size_t sample_records = 0;  // profile modes: records that flowed
    /// Fused-region accounting, set on the region head's outcome only and
    /// emitted as exec.fused.* metrics during the id-ordered flush (so the
    /// emission order is identical for every schedule).
    int fused_members = 0;
    double fused_bytes_avoided = 0.0;    // interior outputs never materialized
    double fused_chunk_peak_bytes = 0.0; // max resident bytes across chunks
    /// Fault-injection replay of this execution (empty without a plan).
    /// Computed during the serial, id-ordered flush so the draws and the
    /// lineage costs they price are identical for every schedule.
    faults::FaultOutcome fault;
  };

  /// The body of Run and RunApply: executes the pass's nodes, flushes
  /// their outcomes in id order, and returns the executed ids.
  std::vector<int> RunPass(
      ExecMode mode, const SelectHook& select, const AnyDataset& input,
      const std::map<int, std::shared_ptr<TransformerBase>>* models);
  /// Executes `exec_ids` in dependency order, lowest ready id first.
  void Schedule(const std::vector<int>& exec_ids);
  void ExecuteNode(int id);
  void FlushOutcome(int id);

  /// The transformer node `id` applies: its physical operator, or for an
  /// apply-model node the fitted model (null when none is available).
  std::shared_ptr<TransformerBase> TransformerFor(int id) const;
  /// The one charging body for an operator execution, node-at-a-time or
  /// fused: which operator ran on `in_stats`, its predicted and reported
  /// (`actual`) costs, and what is charged for them.
  template <typename Op>
  void ChargeOperator(int id, const Op& op, const DataStats& in_stats,
                      const std::optional<CostProfile>& actual, double scale);

  /// Streams cache-resident chunks of the region head's input through every
  /// member's ApplyChunk, materializing only the tail output. Fills each
  /// member's NodeOutcome so the flushed effects are byte-identical to the
  /// unfused plan. Returns false — leaving all outcomes untouched — when
  /// the region cannot stream (unchunkable input, or an operator without
  /// chunked apply), in which case the caller executes members node by
  /// node.
  bool TryExecuteFusedRegion(const FusedRegion& region);

  /// Virtual seconds to re-produce node `id`'s output during recovery:
  /// a cache read when the output is materialized and `respect_cache`
  /// holds, else the node's own seconds plus its inputs' chains.
  double RecomputeChainSeconds(int id, bool respect_cache) const;

  /// Replays outcome `id` under the context's fault plan (no-op without
  /// one) and routes the priced recovery into ledger, metrics, timeline,
  /// trace, and the plan's decision log. Called from FlushOutcome.
  void SimulateFaults(int id);

  bool InProfileMode() const {
    return mode_ == ExecMode::kProfileSmall ||
           mode_ == ExecMode::kProfileLarge;
  }
  size_t SampleSize() const {
    return mode_ == ExecMode::kProfileSmall
               ? plan_->config.profile_sample_small
               : plan_->config.profile_sample_large;
  }

  PhysicalPlan* plan_;
  ExecContext* ctx_;

  // Per-run state; indexed by node id. Each scheduler thread writes only
  // the slots of nodes it executed, and cross-thread visibility is ordered
  // by the scheduler's ready-queue mutex.
  ExecMode mode_ = ExecMode::kFit;
  SelectHook select_;
  /// Fit mode with an ArtifactCatalog: nodes whose output is published into
  /// the catalog during the id-ordered flush (pure-lineage transformers and
  /// gathers the ReusePass did not already rewrite). Empty otherwise.
  std::vector<bool> catalog_publish_;
  std::vector<AnyDataset> outputs_;
  std::vector<std::shared_ptr<TransformerBase>> models_;
  std::vector<NodeOutcome> outcomes_;
  const std::map<int, std::shared_ptr<TransformerBase>>* apply_models_ =
      nullptr;
};

}  // namespace keystone

#endif  // KEYSTONE_CORE_PLAN_RUNNER_H_
