#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/executor.h"
#include "src/core/physical_plan.h"
#include "src/core/pipeline.h"
#include "src/core/pipeline_graph.h"
#include "src/data/dist_dataset.h"
#include "src/obs/profile_store.h"
#include "src/obs/resource_timeline.h"
#include "src/obs/trace.h"
#include "tests/test_operators.h"

namespace keystone {
namespace {

using testing_ops::AddConst;
using testing_ops::MeanCenterer;
using testing_ops::Scale;

std::shared_ptr<DistDataset<double>> Doubles(std::vector<double> values,
                                             size_t parts = 2) {
  return DistDataset<double>::Partitioned(std::move(values), parts);
}

ClusterResourceDescriptor TestCluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

/// A Gather-heavy pipeline: `branches` independent featurization chains,
/// each ending in an estimator, zipped into one output vector. Exercises
/// DAG-level branch parallelism on both the train and runtime paths. With
/// `optimizable`, each chain's Scale is a two-option logical operator, so
/// the profile pass fires the select hook once per branch.
Pipeline<double, std::vector<double>> BranchyPipeline(
    int branches, bool optimizable = false) {
  auto train = Doubles({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  auto base = PipelineInput<double>();
  std::vector<Pipeline<double, double>> chains;
  for (int i = 0; i < branches; ++i) {
    std::shared_ptr<TransformerBase> scale = std::make_shared<Scale>(i + 1.0);
    if (optimizable) {
      scale = std::make_shared<OptimizableTransformer>(
          "scale", std::vector<std::shared_ptr<TransformerBase>>{
                       scale, std::make_shared<Scale>(i + 1.0)});
    }
    chains.push_back(base.AndThenLogical<double>(scale)
                         .AndThen(std::make_shared<AddConst>(i * 0.5))
                         .AndThen(std::make_shared<MeanCenterer>(), train));
  }
  return Pipeline<double, double>::Gather(chains);
}

struct FitObservation {
  std::vector<double> output;
  double fit_ledger_seconds = 0.0;
  double apply_ledger_seconds = 0.0;
  std::string report_text;
  std::vector<std::string> span_names;
  std::string timeline_json;
  /// Node ids in the order operator selection decided them.
  std::vector<int> selection_order;
};

FitObservation FitAndObserve(const OptimizationConfig& config,
                             bool optimizable = false) {
  auto pipe = BranchyPipeline(6, optimizable);
  PipelineExecutor executor(TestCluster(), config);
  obs::TraceRecorder recorder;
  obs::ResourceTimeline timeline;
  executor.context()->set_tracer(&recorder);
  executor.context()->set_timeline(&timeline);
  PipelineReport report;
  auto fitted = executor.Fit(pipe, &report);
  FitObservation obs;
  obs.fit_ledger_seconds = executor.context()->ledger()->TotalSeconds();
  obs.output = fitted.ApplyOne(2.0, executor.context());
  obs.apply_ledger_seconds =
      executor.context()->ledger()->TotalSeconds() - obs.fit_ledger_seconds;
  obs.report_text = report.ToString();
  for (const auto& span : recorder.Spans()) obs.span_names.push_back(span.name);
  obs.timeline_json = timeline.ToJson();
  for (const obs::SelectionDecision& decision :
       fitted.impl().plan().decision_log->Selections()) {
    obs.selection_order.push_back(decision.node_id);
  }
  return obs;
}

TEST(PlanRunnerTest, ParallelFitIsDeterministic) {
  const FitObservation first = FitAndObserve(OptimizationConfig::Full());
  const FitObservation second = FitAndObserve(OptimizationConfig::Full());
  // Bit-identical models, charged virtual time, plan report, and span order
  // across runs, regardless of the order the scheduler dispatched branches.
  EXPECT_EQ(first.output, second.output);
  EXPECT_EQ(first.fit_ledger_seconds, second.fit_ledger_seconds);
  EXPECT_EQ(first.apply_ledger_seconds, second.apply_ledger_seconds);
  EXPECT_EQ(first.report_text, second.report_text);
  EXPECT_EQ(first.span_names, second.span_names);
}

TEST(PlanRunnerTest, SerialAndParallelExecutionAgree) {
  OptimizationConfig serial = OptimizationConfig::Full();
  serial.parallel_branches = false;
  for (bool optimizable : {false, true}) {
    const FitObservation off = FitAndObserve(serial, optimizable);
    const FitObservation on =
        FitAndObserve(OptimizationConfig::Full(), optimizable);
    // Branch parallelism is a wall-clock optimization only: every
    // observable effect — fitted models, virtual-time charges, report,
    // trace — matches strictly serial execution exactly.
    EXPECT_EQ(off.output, on.output);
    EXPECT_EQ(off.fit_ledger_seconds, on.fit_ledger_seconds);
    EXPECT_EQ(off.apply_ledger_seconds, on.apply_ledger_seconds);
    EXPECT_EQ(off.report_text, on.report_text);
    EXPECT_EQ(off.span_names, on.span_names);
    // Profile passes run on the calling thread in ascending id order, so
    // the select hook, and the decision log it fills, see one branch after
    // another in id order under either setting.
    EXPECT_EQ(off.selection_order, on.selection_order);
    EXPECT_TRUE(std::is_sorted(on.selection_order.begin(),
                               on.selection_order.end()));
    EXPECT_EQ(on.selection_order.size(), optimizable ? 6u : 0u);
  }
}

TEST(PlanRunnerTest, ResourceTimelineBitIdenticalAcrossSchedulers) {
  // The timeline is built from per-node effects buffered by PlanRunner and
  // flushed in node-id order, so the serial and branch-parallel schedules
  // must render byte-for-byte identical timelines: same intervals in the
  // same order, same cache counters, same high-water mark.
  OptimizationConfig serial = OptimizationConfig::Full();
  serial.parallel_branches = false;
  const FitObservation off = FitAndObserve(serial);
  const FitObservation on = FitAndObserve(OptimizationConfig::Full());
  EXPECT_FALSE(on.timeline_json.empty());
  EXPECT_NE(on.timeline_json.find("\"intervals\""), std::string::npos);
  EXPECT_EQ(off.timeline_json, on.timeline_json);
}

TEST(PlanRunnerTest, UnoptimizedConfigsAgreeAcrossSchedulers) {
  OptimizationConfig serial = OptimizationConfig::None();
  serial.parallel_branches = false;
  const FitObservation off = FitAndObserve(serial);
  const FitObservation on = FitAndObserve(OptimizationConfig::None());
  EXPECT_EQ(off.output, on.output);
  EXPECT_EQ(off.fit_ledger_seconds, on.fit_ledger_seconds);
  EXPECT_EQ(off.report_text, on.report_text);
}

TEST(CompileTest, ExposesCompiledPlan) {
  auto pipe = BranchyPipeline(3);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto plan = executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->materialized);
  EXPECT_GT(plan->NumTrainNodes(), 0);
  EXPECT_GT(plan->NumRuntimeNodes(), 0);
  // Every node carries a structural fingerprint; both renderings print it.
  for (const PlannedNode& pn : plan->nodes) {
    if (pn.train || pn.runtime) {
      EXPECT_FALSE(pn.fingerprint.empty());
    }
  }
  EXPECT_NE(plan->ToString().find("PhysicalPlan{"), std::string::npos);
  EXPECT_NE(plan->ToJson().find("\"fingerprint\""), std::string::npos);
}

TEST(CompileTest, FitMatchesCompiledPlanDecisions) {
  auto pipe = BranchyPipeline(3);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  PipelineReport report;
  auto fitted = executor.Fit(pipe, &report);
  const PhysicalPlan& plan = fitted.impl().plan();
  EXPECT_EQ(report.cache_set, plan.cache_set);
  EXPECT_EQ(report.cse_eliminated, plan.cse_eliminated);
  for (const NodeExecutionRecord& record : report.nodes) {
    EXPECT_EQ(record.chosen_physical, plan.nodes[record.id].physical_name);
  }
}

TEST(FingerprintTest, StableUnderNodeRename) {
  auto pipe = BranchyPipeline(2);
  auto graph = std::make_shared<PipelineGraph>(*pipe.graph());
  const OptimizationConfig config = OptimizationConfig::Full();
  PhysicalPlan plan = LowerToPhysical(graph, pipe.source(), pipe.sink(),
                                      config, TestCluster());
  std::vector<std::string> before;
  for (const PlannedNode& pn : plan.nodes) before.push_back(pn.fingerprint);
  for (int id = 0; id < graph->size(); ++id) {
    graph->mutable_node(id)->name += " (renamed)";
  }
  RelowerPlan(&plan);
  for (const PlannedNode& pn : plan.nodes) {
    EXPECT_EQ(pn.fingerprint, before[pn.id]) << "node " << pn.id;
  }
}

TEST(FingerprintTest, StoredProfilesSurviveNodeRename) {
  // Profiles recorded under one naming must be reused after every node in
  // the pipeline is renamed: the store is keyed by structural fingerprint,
  // not display name.
  auto pipe = BranchyPipeline(2);
  obs::ProfileStore store;
  {
    PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
    executor.context()->set_profile_store(&store);
    executor.Fit(pipe);
  }
  for (int id = 0; id < pipe.graph()->size(); ++id) {
    pipe.graph()->mutable_node(id)->name += " v2";
  }
  OptimizationConfig reuse = OptimizationConfig::Full();
  reuse.reuse_stored_profiles = true;
  PipelineExecutor executor(TestCluster(), reuse);
  executor.context()->set_profile_store(&store);
  PipelineReport report;
  executor.Fit(pipe, &report);
  EXPECT_TRUE(report.profiles_from_store);
  EXPECT_EQ(report.optimize_seconds, 0.0);
}

/// Identity transformer that records the thread of every call.
class ThreadRecorder : public Transformer<double, double> {
 public:
  std::string Name() const override { return "ThreadRecorder"; }
  double Apply(const double& x) const override {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
    return x;
  }
  std::set<std::thread::id> TakeThreads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(threads_, {});
  }

 private:
  mutable std::mutex mu_;
  mutable std::set<std::thread::id> threads_;
};

TEST(PlanRunnerTest, FusedChainStartsNoThreads) {
  auto recorder = std::make_shared<ThreadRecorder>();
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(recorder)
                  .AndThen(std::make_shared<AddConst>(1.0));
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto fitted = executor.Fit(pipe);
  // The whole runtime path is one fused chain.
  const PhysicalPlan& plan = fitted.impl().plan();
  ASSERT_EQ(plan.fused_regions.size(), 1u);
  EXPECT_EQ(static_cast<int>(plan.fused_regions[0].nodes.size()),
            plan.NumRuntimeNodes());

  ThreadPool pool(1);
  ExecContext ctx(TestCluster());
  ctx.set_pool(&pool);
  ctx.set_tracer(nullptr);
  ctx.set_metrics(nullptr);
  ctx.set_timeline(nullptr);
  recorder->TakeThreads();
  for (int i = 0; i < 50; ++i) {
    fitted.Apply(Doubles({1, 2, 3, 4, 5}, 2), &ctx);
  }
  EXPECT_EQ(recorder->TakeThreads(),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ExecContextTest, ActualCostIsPerThread) {
  ExecContext ctx(TestCluster());
  CostProfile other;
  other.flops = 2.0;
  std::thread worker([&] { ctx.ReportActualCost(other); });
  worker.join();
  // The worker thread's report is invisible to this thread...
  EXPECT_FALSE(ctx.TakeActualCost().has_value());
  // ...and a stale report on this thread is cleared by the next scope.
  CostProfile mine;
  mine.flops = 1.0;
  ctx.ReportActualCost(mine);
  EXPECT_TRUE(ctx.BeginOperatorScope());
  EXPECT_FALSE(ctx.TakeActualCost().has_value());
  EXPECT_FALSE(ctx.BeginOperatorScope());
}

}  // namespace
}  // namespace keystone
