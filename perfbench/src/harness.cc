#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "perfbench/src/bench.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/plan_validator.h"
#include "src/common/timer.h"
#include "src/core/plan_runner.h"
#include "src/linalg/vector_ops.h"
#include "src/optimizer/pass_manager.h"
#include "src/serve/load_generator.h"
#include "src/serve/pipeline_server.h"
#include "src/serve/servable_pipeline.h"
#include "src/serve/serve_options.h"

namespace perfbench {

using keystone::AnyDataset;
using keystone::ExecContext;
using keystone::FittedPipelineUntyped;
using keystone::PhysicalPlan;
using keystone::Timer;
using keystone::obs::TraceSpan;

namespace {

size_t CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

bool IsSolver(const TraceSpan& span) {
  return span.name.find("Solver") != std::string::npos;
}

bool IsSource(const TraceSpan& span) {
  return span.kind == "Source" || span.kind == "Placeholder";
}

bool IsTextOp(const std::string& name) {
  return name == "Trim" || name == "LowerCase" || name == "Tokenizer" ||
         name == "NGrams" || name == "HashingTF" ||
         name.find("CommonSparseFeatures") != std::string::npos;
}

/// Adds the named-operator buckets (ops.kmeans_s, ...) for one span.
void AddOpBuckets(const TraceSpan& span, Layers* layers) {
  if (span.name.find("KMeans") != std::string::npos) {
    layers->kmeans_s += span.wall_seconds;
  } else if (span.name.find("RandomFeatures") != std::string::npos) {
    layers->random_features_s += span.wall_seconds;
  } else if (IsTextOp(span.name)) {
    layers->text_featurize_s += span.wall_seconds;
  }
}

/// Pins the calling thread to the CPU it is running on, and restores its
/// affinity when destroyed. Threads it starts meanwhile inherit the pin.
class CpuPin {
 public:
  CpuPin() {
    cpu_set_t one;
    CPU_ZERO(&one);
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// One response's encoded row must parse as `width` finite numbers.
bool Decodes(const std::string& row, size_t width) {
  size_t fields = 0;
  const char* p = row.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const double value = std::strtod(p, &end);
    if (end == p || !std::isfinite(value)) return false;
    ++fields;
    p = end;
    if (*p == ',') {
      ++p;
    } else if (*p != '\0') {
      return false;
    }
  }
  return fields == width;
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

/// Virtual latency quantiles over completed requests and SLO attainment
/// over offered ones (a refused request misses the SLO).
ServeVirtual SummarizeServe(const keystone::serve::ServeReport& report) {
  std::vector<double> latencies;
  latencies.reserve(report.responses.size());
  for (const auto& response : report.responses) {
    if (response.accepted) latencies.push_back(response.latency_seconds);
  }
  std::sort(latencies.begin(), latencies.end());
  ServeVirtual out;
  out.samples = latencies.size();
  out.p50_s = NearestRank(latencies, 0.50);
  out.p99_s = NearestRank(latencies, 0.99);
  size_t offered = 0;
  size_t met = 0;
  for (const auto& tenant : report.tenants) {
    offered += tenant.offered;
    met += tenant.slo_met;
  }
  out.attainment = offered == 0 ? 0.0
                                : static_cast<double>(met) /
                                      static_cast<double>(offered);
  return out;
}

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 over (seed, stream): nearby seeds give unrelated streams.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

keystone::ClusterResourceDescriptor Cluster() {
  return keystone::ClusterResourceDescriptor::R3_4xlarge(4);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ArgmaxAccuracy(const AnyDataset& scores,
                      const std::vector<int>& labels) {
  const auto rows =
      keystone::DistDataset<std::vector<double>>::Cast(scores)->Collect();
  if (rows.size() != labels.size() || rows.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (static_cast<int>(keystone::ArgMax(rows[i])) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(rows.size());
}

Env::Env(const Options& options)
    : options_(options), nproc_(CpuCount()), pool_(nproc_) {}

void Env::set_mode(Mode mode) {
  mode_ = mode;
  recorder_.Clear();
}

void Env::Attach(ExecContext* ctx) {
  ctx->set_pool(&pool_);
  const bool traced = mode_ == Mode::kTraced;
  ctx->set_tracer(traced ? &recorder_ : nullptr);
  ctx->set_metrics(traced ? &registry_ : nullptr);
  // Both modes keep cross-fit state out: no process-wide profile store
  // (which would let later fits skip their profile passes) or timeline.
  ctx->set_profile_store(nullptr);
  ctx->set_timeline(nullptr);
}

void Env::Check(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1, what);
}

void Env::Count(size_t attempted, size_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && failures_.size() < 20) failures_.push_back(what);
}

double Env::MetricValue(const std::string& name) const {
  for (const auto& metric : registry_.Snapshot()) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

std::vector<TraceSpan> Env::TakeSpans() {
  std::vector<TraceSpan> spans = recorder_.Spans();
  recorder_.Clear();
  layers.spans += static_cast<double>(spans.size());
  return spans;
}

Env::FitResult Env::Fit(const keystone::PipelineGraph& graph, int source,
                        int sink, keystone::cache::ArtifactCatalog* catalog) {
  keystone::PipelineExecutor executor(Cluster(),
                                      keystone::OptimizationConfig::Full());
  ExecContext* ctx = executor.context();
  Attach(ctx);
  ctx->set_artifact_catalog(catalog);
  FitResult result;
  if (mode_ == Mode::kTimed) {
    keystone::PipelineReport report;
    const Timer wall;
    result.fitted = executor.FitGraph(graph, source, sink, &report);
    result.wall_s = wall.ElapsedSeconds();
    result.virtual_s = report.optimize_seconds + report.total_train_seconds;
  } else {
    // FitGraph's steps, called one by one so each gets its own span.
    if (catalog != nullptr) catalog->BeginGeneration();
    const Timer compile_wall;
    std::shared_ptr<PhysicalPlan> plan = executor.Compile(graph, source, sink);
    const double compile_s = compile_wall.ElapsedSeconds();

    const Timer book;
    std::vector<TraceSpan> profile_spans;
    if (mode_ == Mode::kTraced) {
      profile_spans = TakeSpans();
      for (const auto& pn : plan->nodes) {
        if (!pn.reused || catalog == nullptr) continue;
        const auto meta = catalog->Lookup(pn.reuse_fingerprint);
        if (meta.has_value() && meta->in_memory) {
          layers.hits_memory += 1.0;
        } else {
          layers.hits_disk += 1.0;
        }
      }
    }
    bookkeeping_s += book.ElapsedSeconds();

    const Timer run_wall;
    keystone::PlanRunner runner(plan.get(), ctx);
    keystone::RunResult run = runner.Run(keystone::ExecMode::kFit);
    const double fit_run_s = run_wall.ElapsedSeconds();
    result.fitted =
        std::make_shared<FittedPipelineUntyped>(plan, std::move(run.models));
    result.wall_s = compile_s + fit_run_s;

    if (mode_ == Mode::kTraced) {
      const Timer book_after;
      layers.compile_s += compile_s;
      layers.fit_run_s += fit_run_s;
      ++layers.fits;
      AccumulateFitSpans(*plan, profile_spans, TakeSpans());
      // analysis.validate_s: one validation of the compiled plan, priced
      // at the number of times Compile runs it (once on the lowered plan,
      // then after every pass).
      keystone::PassManager passes;
      keystone::RegisterStandardPasses(&passes);
      const Timer validate_wall;
      keystone::analysis::PlanValidationOptions vopts;
      vopts.sink = plan->sink;
      vopts.placeholder = plan->placeholder;
      vopts.expect_cse = plan->cse_applied;
      vopts.warn_unreachable = false;
      keystone::analysis::ValidationReport vreport =
          keystone::analysis::PlanValidator(vopts).Validate(*plan->graph);
      const keystone::analysis::DataflowResult flow =
          keystone::analysis::InferDataflow(*plan);
      vreport.Merge(keystone::analysis::CheckDataflow(*plan, flow));
      layers.validate_s += validate_wall.ElapsedSeconds() *
                           static_cast<double>(1 + passes.NumPasses());
      bookkeeping_s += book_after.ElapsedSeconds();
    }
  }
  for (const auto& pn : result.fitted->plan().nodes) {
    if (pn.reused) ++result.reused_nodes;
  }
  if (mode_ == Mode::kTraced) layers.reused_nodes += result.reused_nodes;
  return result;
}

void Env::AccumulateFitSpans(const PhysicalPlan& plan,
                             const std::vector<TraceSpan>& profile,
                             const std::vector<TraceSpan>& train) {
  // An estimator's profile fit is discarded when no node on the training
  // path consumes its model (the terminal solver): its sample model is
  // never used, only its cost.
  std::vector<bool> consumed(plan.nodes.size(), false);
  for (const auto& pn : plan.nodes) {
    if (pn.train && pn.model_input >= 0 &&
        static_cast<size_t>(pn.model_input) < consumed.size()) {
      consumed[pn.model_input] = true;
    }
  }
  for (const TraceSpan& span : profile) {
    layers.profile_s += span.wall_seconds;
    if (IsSolver(span)) layers.solver_profile_s += span.wall_seconds;
    const size_t id = static_cast<size_t>(span.node_id);
    if (span.node_id >= 0 && id < plan.nodes.size() &&
        plan.nodes[id].kind == keystone::NodeKind::kEstimator &&
        !consumed[id]) {
      layers.profile_discarded_s += span.wall_seconds;
    }
    AddOpBuckets(span, &layers);
  }
  for (const TraceSpan& span : train) {
    layers.node_wall_sum_s += span.wall_seconds;
    if (IsSolver(span)) {
      layers.solver_train_s += span.wall_seconds;
    } else if (!IsSource(span)) {
      layers.ops_train_s += span.wall_seconds;
    }
    AddOpBuckets(span, &layers);
  }
}

void Env::AccumulateSpans(const std::vector<TraceSpan>& spans, bool serve) {
  for (const TraceSpan& span : spans) {
    if (serve) {
      if (span.kind == "batch") layers.serve_kernel_s += span.wall_seconds;
    } else if (!IsSource(span)) {
      layers.ops_apply_s += span.wall_seconds;
      AddOpBuckets(span, &layers);
    }
  }
}

void Env::AddApplySample(const ApplySample& sample) {
  if (sample.wall_s > 0.0) apply_rps.push_back(sample.records / sample.wall_s);
}

AnyDataset Env::Apply(const FittedPipelineUntyped& fitted,
                      const AnyDataset& input, ApplySample* sample) {
  ExecContext ctx(Cluster());
  Attach(&ctx);
  const Timer wall;
  AnyDataset out = fitted.Apply(input, &ctx);
  const double apply_s = wall.ElapsedSeconds();
  Check(out != nullptr && out->NumRecords() == input->NumRecords(),
        "apply returned a different number of records");
  sample->records += static_cast<double>(input->NumRecords());
  sample->wall_s += apply_s;
  if (mode_ == Mode::kTraced) {
    const Timer book;
    layers.apply_s += apply_s;
    ++layers.applies;
    AccumulateSpans(TakeSpans(), /*serve=*/false);
    bookkeeping_s += book.ElapsedSeconds();
  }
  return out;
}

ServeSample Env::Serve(const std::vector<Tenant>& tenants,
                       double rate_per_tenant, size_t requests_per_tenant,
                       bool count_requests) {
  namespace serve = keystone::serve;
  // One server instance per core. PlanRunner starts scheduler threads for
  // every micro-batch; unpinned, they wake idle vCPUs, and on a shared VM
  // that made the wall per request vary 2-3x from one process to the next.
  const CpuPin pin;
  serve::ServerConfig config;
  config.server_slots = 4;
  config.num_threads = kServerThreads;
  serve::PipelineServer server(Cluster(), config);
  ExecContext* ctx = server.context();
  const bool traced = mode_ == Mode::kTraced;
  ctx->set_tracer(traced ? &recorder_ : nullptr);
  ctx->set_metrics(traced ? &registry_ : nullptr);
  ctx->set_profile_store(nullptr);
  ctx->set_timeline(nullptr);

  serve::ServeOptions options;
  options.max_batch_size = 16;
  options.max_batch_delay_seconds = 0.05;
  options.queue_depth = 64;
  options.slo_seconds = 4.0;
  options.cost_admission = true;
  options.admission_headroom = 1.0;
  std::vector<std::unique_ptr<serve::OpenLoopSource>> sources;
  std::vector<serve::RequestSource*> merged;
  for (size_t t = 0; t < tenants.size(); ++t) {
    const int id = server.AddTenant(
        tenants[t].name, serve::ServablePipeline(tenants[t].fitted),
        tenants[t].codec, options);
    sources.push_back(std::make_unique<serve::OpenLoopSource>(
        id, rate_per_tenant, requests_per_tenant,
        tenants[t].codec->NumPayloads(),
        SubSeed(options_.seed, 1000 + t)));
    merged.push_back(sources.back().get());
  }
  serve::MergedSource load(merged);

  const Timer wall;
  serve::ServeReport report = server.Run(&load);
  const double run_s = wall.ElapsedSeconds();

  // Output checks: every completed response decodes to its tenant's width,
  // and every offered request is accounted for.
  size_t offered = 0;
  size_t refused = 0;
  size_t bad = 0;
  for (const auto& response : report.responses) {
    if (!response.accepted) continue;
    const size_t t = static_cast<size_t>(response.tenant);
    if (t >= tenants.size() ||
        !Decodes(response.output, tenants[t].num_classes)) {
      ++bad;
    }
  }
  for (const auto& tally : report.tenants) {
    offered += tally.offered;
    const size_t tenant_refused = tally.rejected_queue_full +
                                  tally.rejected_predicted_cost +
                                  tally.rejected_error_budget;
    refused += tenant_refused;
    if (tally.completed + tenant_refused != tally.offered) ++bad;
  }
  if (offered != requests_per_tenant * tenants.size()) ++bad;
  if (count_requests) {
    Count(offered, std::min(offered, refused + bad),
          "fixed-rate serving refused or garbled requests");
  } else {
    Check(bad == 0, "ladder serving garbled responses");
  }

  ServeSample sample;
  sample.run_s = run_s;
  for (const auto& tally : report.tenants) {
    sample.completed += static_cast<double>(tally.completed);
  }
  sample.virtual_time = SummarizeServe(report);
  if (traced) {
    const Timer book;
    layers.serve_run_s += run_s;
    ++layers.serve_runs;
    for (const auto& tally : report.tenants) {
      layers.serve_batches += static_cast<double>(tally.batches);
      layers.serve_batched_records +=
          static_cast<double>(tally.batched_records);
      layers.serve_queue_high_water =
          std::max(layers.serve_queue_high_water,
                   static_cast<double>(tally.queue_high_water));
    }
    layers.serve_rejected += static_cast<double>(refused);
    const keystone::ThreadPool::Stats pool = ctx->pool()->stats();
    layers.pool_tasks += static_cast<double>(pool.tasks_executed);
    layers.pool_busy_s += pool.busy_seconds;
    AccumulateSpans(TakeSpans(), /*serve=*/true);
    bookkeeping_s += book.ElapsedSeconds();
  }
  return sample;
}

}  // namespace perfbench
