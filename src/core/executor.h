#ifndef KEYSTONE_CORE_EXECUTOR_H_
#define KEYSTONE_CORE_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/exec_context.h"
#include "src/core/physical_plan.h"
#include "src/core/pipeline.h"
#include "src/core/pipeline_graph.h"
#include "src/data/dist_dataset.h"
#include "src/optimizer/materialization.h"

namespace keystone {

/// Per-node record of what the executor did and measured.
struct NodeExecutionRecord {
  int id = -1;
  std::string name;
  NodeKind kind = NodeKind::kSource;
  std::string chosen_physical;  // physical op, when node was Optimizable
  double compute_seconds = 0.0;  // per-pass virtual seconds, full scale
  double output_bytes = 0.0;
  int weight = 1;
  bool cached = false;
  DataStats output_stats;
};

/// Everything a benchmark needs to know about one Fit() run.
struct PipelineReport {
  std::vector<NodeExecutionRecord> nodes;
  std::vector<bool> cache_set;
  int cse_eliminated = 0;
  double optimize_seconds = 0.0;
  double load_seconds = 0.0;
  double featurize_seconds = 0.0;
  double solve_seconds = 0.0;
  /// Fault-recovery virtual seconds charged by the fault-injection layer
  /// during the training pass (zero without an enabled FaultPlan).
  double recovery_seconds = 0.0;
  /// Load + featurize + solve + recovery (training time under the cache
  /// policy, including any injected-fault overhead).
  double total_train_seconds = 0.0;
  double cache_budget_bytes = 0.0;
  double cache_used_bytes = 0.0;
  /// True when the sampling passes were replaced by stored profiles
  /// (OptimizationConfig::reuse_stored_profiles and full store coverage).
  bool profiles_from_store = false;

  std::string ToString() const;
};

/// A fitted pipeline: the compiled PhysicalPlan plus the models fitted for
/// its estimator nodes. Obtained from PipelineExecutor::Fit; Apply runs the
/// plan's runtime path through PlanRunner.
class FittedPipelineUntyped {
 public:
  FittedPipelineUntyped(
      std::shared_ptr<PhysicalPlan> plan,
      std::map<int, std::shared_ptr<TransformerBase>> models);

  /// Applies the runtime path to new data, charging the "Eval" ledger stage.
  AnyDataset Apply(const AnyDataset& input, ExecContext* ctx) const;

  /// The fitted model produced by the estimator node `id` (for inspection).
  std::shared_ptr<TransformerBase> ModelFor(int estimator_node) const;

  /// The compiled plan this pipeline executes (for inspection/dumping).
  const PhysicalPlan& plan() const { return *plan_; }
  /// Shared handle to the plan (ServablePipeline keeps it alive).
  const std::shared_ptr<PhysicalPlan>& plan_ptr() const { return plan_; }

  /// All fitted models, keyed by estimator node id.
  const std::map<int, std::shared_ptr<TransformerBase>>& models() const {
    return models_;
  }

  const PipelineGraph& graph() const { return *plan_->graph; }
  int sink() const { return plan_->sink; }

 private:
  std::shared_ptr<PhysicalPlan> plan_;
  std::map<int, std::shared_ptr<TransformerBase>> models_;
};

/// Typed facade over FittedPipelineUntyped.
template <typename A, typename B>
class FittedPipeline {
 public:
  explicit FittedPipeline(std::shared_ptr<FittedPipelineUntyped> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<const DistDataset<B>> Apply(
      const std::shared_ptr<DistDataset<A>>& input, ExecContext* ctx) const {
    return DistDataset<B>::Cast(impl_->Apply(input, ctx));
  }

  /// Applies to one record (wraps it in a singleton dataset).
  B ApplyOne(const A& record, ExecContext* ctx) const {
    auto dataset = MakeDataset<A>({record}, 1);
    auto out = Apply(dataset, ctx);
    KS_CHECK_EQ(out->NumRecords(), 1u);
    return out->Collect()[0];
  }

  const FittedPipelineUntyped& impl() const { return *impl_; }
  const std::shared_ptr<FittedPipelineUntyped>& impl_ptr() const {
    return impl_;
  }

 private:
  std::shared_ptr<FittedPipelineUntyped> impl_;
};

/// Optimizes and trains pipelines (paper Figure 1, stages 2-4) as an
/// explicit compile/execute split: Compile lowers the logical graph to a
/// PhysicalPlan and runs the optimizer pass pipeline over it (CSE, profile
/// + operator selection, materialization planning — re-validated after
/// every pass); FitGraph then executes the compiled plan through the single
/// PlanRunner and accounts virtual time under the cache policy.
class PipelineExecutor {
 public:
  PipelineExecutor(const ClusterResourceDescriptor& resources,
                   const OptimizationConfig& config);

  /// Optimizes and fits a typed pipeline.
  template <typename A, typename B>
  FittedPipeline<A, B> Fit(const Pipeline<A, B>& pipeline,
                           PipelineReport* report = nullptr) {
    return FittedPipeline<A, B>(
        FitGraph(*pipeline.graph(), pipeline.source(), pipeline.sink(),
                 report));
  }

  /// Compiles a logical graph to an optimized PhysicalPlan without
  /// executing the training pass: validates the submitted graph, lowers it
  /// (over a private copy), and runs the standard optimizer passes. Used by
  /// FitGraph and by the explain / pipeline_lint tools.
  std::shared_ptr<PhysicalPlan> Compile(const PipelineGraph& graph,
                                        int placeholder, int sink);

  /// Type-erased core used by Fit: Compile + one PlanRunner fit pass +
  /// virtual-time accounting.
  std::shared_ptr<FittedPipelineUntyped> FitGraph(const PipelineGraph& graph,
                                                  int placeholder, int sink,
                                                  PipelineReport* report);

  ExecContext* context() { return &context_; }
  const OptimizationConfig& config() const { return config_; }

 private:
  OptimizationConfig config_;
  ExecContext context_;
};

}  // namespace keystone

#endif  // KEYSTONE_CORE_EXECUTOR_H_
