#include "src/core/executor.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/analysis/dataflow.h"
#include "src/analysis/plan_validator.h"
#include "src/cache/artifact_catalog.h"
#include "src/common/check.h"
#include "src/common/string_util.h"
#include "src/core/plan_runner.h"
#include "src/obs/calibration.h"
#include "src/obs/metrics.h"
#include "src/optimizer/pass_manager.h"

namespace keystone {

namespace {

/// Spark-like admission control for the LRU baseline: objects above this
/// fraction of the cache are never admitted (§5.4 discusses the implicit
/// policy and its failure mode).
constexpr double kLruAdmitFraction = 0.35;

}  // namespace

std::string PipelineReport::ToString() const {
  std::ostringstream os;
  os << "PipelineReport{optimize=" << HumanSeconds(optimize_seconds)
     << (profiles_from_store ? " (from store)" : "")
     << ", load=" << HumanSeconds(load_seconds)
     << ", featurize=" << HumanSeconds(featurize_seconds)
     << ", solve=" << HumanSeconds(solve_seconds);
  // Only faulted runs print the recovery term, so fault-free reports keep
  // their exact pre-fault shape.
  if (recovery_seconds > 0.0) {
    os << ", recovery=" << HumanSeconds(recovery_seconds);
  }
  os << ", total=" << HumanSeconds(total_train_seconds)
     << ", cse_eliminated=" << cse_eliminated << ", cache="
     << HumanBytes(cache_used_bytes) << "/" << HumanBytes(cache_budget_bytes)
     << "}\n";
  for (const auto& node : nodes) {
    os << "  [" << node.id << "] " << node.name;
    if (!node.chosen_physical.empty()) os << " -> " << node.chosen_physical;
    os << " t/pass=" << HumanSeconds(node.compute_seconds)
       << " w=" << node.weight << " out=" << HumanBytes(node.output_bytes)
       << (node.cached ? " [cached]" : "") << "\n";
  }
  return os.str();
}

FittedPipelineUntyped::FittedPipelineUntyped(
    std::shared_ptr<PhysicalPlan> plan,
    std::map<int, std::shared_ptr<TransformerBase>> models)
    : plan_(std::move(plan)), models_(std::move(models)) {}

std::shared_ptr<TransformerBase> FittedPipelineUntyped::ModelFor(
    int estimator_node) const {
  auto it = models_.find(estimator_node);
  KS_CHECK(it != models_.end())
      << "no model fitted for node " << estimator_node;
  return it->second;
}

AnyDataset FittedPipelineUntyped::Apply(const AnyDataset& input,
                                        ExecContext* ctx) const {
  const auto& resources = ctx->resources();
  // Charge loading the evaluation data.
  const DataStats input_stats = input->ComputeStats();
  ctx->ledger()->ChargeSeconds(
      "LoadTest", resources.DiskReadSeconds(input_stats.TotalBytes() /
                                            std::max(1, resources.num_nodes)));
  PlanRunner runner(plan_.get(), ctx);
  return runner.RunApply(input, models_);
}

PipelineExecutor::PipelineExecutor(const ClusterResourceDescriptor& resources,
                                   const OptimizationConfig& config)
    : config_(config), context_(resources) {}

std::shared_ptr<PhysicalPlan> PipelineExecutor::Compile(
    const PipelineGraph& original, int placeholder, int sink) {
  // --- Static validation of the logical graph as submitted: catch
  // ill-formed DAGs before lowering (which assumes a well-formed DAG).
  if (config_.validate_plans) {
    analysis::PlanValidationOptions vopts;
    vopts.sink = sink;
    vopts.placeholder = placeholder;
    const analysis::ValidationReport vreport =
        analysis::PlanValidator(vopts).Validate(original);
    analysis::RecordDiagnostics(vreport, context_.metrics());
    KS_CHECK(vreport.ok()) << "pipeline plan failed validation:\n"
                           << vreport.ToString();
  }

  // --- Lower to the PhysicalPlan IR over a private copy of the graph,
  // then run the optimizer pass pipeline (CSE, profile + selection,
  // materialization planning), re-validating after every pass.
  auto graph = std::make_shared<PipelineGraph>(original);
  auto plan = std::make_shared<PhysicalPlan>(LowerToPhysical(
      std::move(graph), placeholder, sink, config_, context_.resources()));

  // --- Static dataflow inference over the freshly lowered IR: shape /
  // cardinality / effect facts plus the shape.* / card.* / effect.* rules,
  // before any pass rewrites the plan.
  if (config_.validate_plans) {
    const analysis::DataflowResult flow = analysis::InferDataflow(*plan);
    const analysis::ValidationReport dreport =
        analysis::CheckDataflow(*plan, flow);
    analysis::RecordDiagnostics(dreport, context_.metrics());
    KS_CHECK(dreport.ok()) << "pipeline plan failed validation:\n"
                           << dreport.ToString();
  }

  PassManager manager;
  RegisterStandardPasses(&manager);
  PassContext pctx;
  pctx.ctx = &context_;
  manager.Run(plan.get(), &pctx);

  // --- Final inference over the optimized plan: annotate every node with
  // its inferred facts (surfaced by explain and consumed by the
  // serving admission prior). The fusibility report itself is logged by the
  // FusionPass, which consumes the chains.
  const analysis::DataflowResult flow = analysis::InferDataflow(*plan);
  analysis::AnnotatePlan(plan.get(), flow);
  return plan;
}

std::shared_ptr<FittedPipelineUntyped> PipelineExecutor::FitGraph(
    const PipelineGraph& original, int placeholder, int sink,
    PipelineReport* report) {
  PipelineReport local_report;
  if (report == nullptr) report = &local_report;
  *report = PipelineReport();

  // Each fit is one catalog generation: artifacts published below carry it,
  // and compaction later drops generations that have aged out.
  if (cache::ArtifactCatalog* catalog = context_.artifact_catalog()) {
    catalog->BeginGeneration();
  }

  auto plan = Compile(original, placeholder, sink);
  const auto& resources = context_.resources();
  report->cse_eliminated = plan->cse_eliminated;
  report->profiles_from_store = plan->profiles_from_store;
  report->optimize_seconds = plan->optimize_seconds;
  report->cache_budget_bytes = plan->cache_budget_bytes;

  // --- Full-scale execution of the training path: the single execution
  // loop, shared with the profile and apply modes, lives in PlanRunner.
  PlanRunner runner(plan.get(), &context_);
  RunResult run = runner.Run(ExecMode::kFit);

  // --- Accounting: per-node records and final virtual-time charges under
  // the configured cache policy.
  std::vector<NodeRuntimeInfo> actual_info(plan->nodes.size());
  report->nodes.clear();
  for (const PlannedNode& pn : plan->nodes) {
    // Reuse-pruned nodes never executed this fit; they stay out of the
    // report and dead to the actual-runtime model.
    if (!pn.train || pn.reuse_pruned) continue;
    NodeExecutionRecord record;
    record.id = pn.id;
    record.name = pn.name;
    record.kind = pn.kind;
    record.weight = pn.weight;
    record.chosen_physical = pn.physical_name;

    NodeRuntimeInfo& info = actual_info[pn.id];
    info.live = true;
    // A reused node's seconds are one catalog load, paid once regardless of
    // the node's demand weight.
    info.weight = pn.reused ? 1 : pn.weight;
    info.always_cached = pn.kind == NodeKind::kEstimator;
    info.compute_seconds =
        pn.reused ? run.node_seconds[pn.id]
                  : run.node_seconds[pn.id] / std::max(1, pn.weight);
    info.output_bytes = run.out_stats[pn.id].TotalBytes();

    record.compute_seconds = info.compute_seconds;
    record.output_bytes = info.output_bytes;
    record.cached = plan->cache_set[pn.id];
    record.output_stats = run.out_stats[pn.id];
    report->nodes.push_back(std::move(record));
  }

  MaterializationProblem actual;
  actual.graph = plan->graph.get();
  actual.resources = resources;
  actual.memory_budget_bytes = plan->cache_budget_bytes;
  actual.terminals = plan->terminals;
  actual.info = std::move(actual_info);

  std::vector<double> per_node;
  if (config_.cache_policy == CachePolicy::kLru) {
    report->total_train_seconds = SimulateLruRuntime(
        actual, plan->cache_budget_bytes, kLruAdmitFraction, &per_node);
  } else {
    report->total_train_seconds =
        EstimateRuntimeDetailed(actual, plan->cache_set, &per_node);
  }
  report->cache_set = plan->cache_set;
  report->cache_used_bytes = CacheSetBytes(actual, plan->cache_set);

  for (const PlannedNode& pn : plan->nodes) {
    if (!pn.train || pn.reuse_pruned) continue;
    switch (pn.kind) {
      case NodeKind::kSource:
        report->load_seconds += per_node[pn.id];
        break;
      case NodeKind::kEstimator:
        report->solve_seconds += per_node[pn.id];
        break;
      default:
        report->featurize_seconds += per_node[pn.id];
        break;
    }
    report->recovery_seconds += run.recovery_seconds[pn.id];
  }
  // PlanRunner already charged recovery to the ledger's "Recovery" stage
  // during its id-ordered flush; here it only joins the report total.
  report->total_train_seconds += report->recovery_seconds;
  context_.ledger()->ChargeSeconds("Optimize", report->optimize_seconds);
  context_.ledger()->ChargeSeconds("Load", report->load_seconds);
  context_.ledger()->ChargeSeconds("Featurize", report->featurize_seconds);
  context_.ledger()->ChargeSeconds("Solve", report->solve_seconds);

  if (obs::MetricsRegistry* metrics = context_.metrics()) {
    metrics->Increment("exec.fits");
    metrics->Increment("optimizer.cse_eliminated", report->cse_eliminated);
    int planned_nodes = 0;
    for (size_t id = 0; id < plan->cache_set.size(); ++id) {
      if (plan->cache_set[id]) ++planned_nodes;
    }
    metrics->Set("cache.planned_nodes", planned_nodes);
    metrics->Set("cache.budget_bytes", report->cache_budget_bytes);
    metrics->Set("cache.used_bytes", report->cache_used_bytes);
    const ThreadPool::Stats pool = context_.pool()->stats();
    metrics->Set("pool.tasks_submitted",
                 static_cast<double>(pool.tasks_submitted));
    metrics->Set("pool.tasks_executed",
                 static_cast<double>(pool.tasks_executed));
    metrics->Set("pool.busy_seconds", pool.busy_seconds);
    if (cache::ArtifactCatalog* catalog = context_.artifact_catalog()) {
      metrics->Set("catalog.entries",
                   static_cast<double>(catalog->NumEntries()));
      metrics->Set("catalog.memory_bytes", catalog->MemoryBytes());
      const cache::CatalogStats cstats = catalog->Stats();
      metrics->Set("catalog.evictions", static_cast<double>(cstats.evictions));
      metrics->Set("catalog.dropped", static_cast<double>(cstats.dropped));
    }

    // Cost-model calibration: predicted-vs-observed residuals over every
    // span this context has traced (gauges — rebuilt each fit, not summed).
    // Fresh runs calibrate from live spans; profile-reuse runs fall back to
    // the store's persisted observation history.
    if (context_.tracer() != nullptr) {
      obs::CalibrationReport calibration =
          obs::BuildCalibrationFromSpans(context_.tracer()->Spans(), resources);
      if (calibration.samples == 0 && context_.profile_store() != nullptr) {
        calibration =
            obs::BuildCalibrationFromStore(*context_.profile_store(),
                                           resources);
      }
      obs::RecordCalibration(calibration, metrics);
    }
  }

  return std::make_shared<FittedPipelineUntyped>(plan,
                                                 std::move(run.models));
}

}  // namespace keystone
