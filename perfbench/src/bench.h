// Shared types of the repository benchmark (perfbench/README.md): the
// per-process environment, the fit/apply/serve calls every workload makes
// through the library's public API, and the accumulators behind the
// end-to-end and per-layer metrics.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/artifact_catalog.h"
#include "src/common/thread_pool.h"
#include "src/core/executor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/pipeline_server.h"
#include "src/serve/request.h"
#include "src/sim/resources.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Directory for the catalog roots tune-grid creates and removes.
  std::string scratch;
};

/// How fits run and which observability sinks are attached.
enum class Mode {
  /// End-to-end measurement: PipelineExecutor::Fit, every sink detached.
  kTimed,
  /// The traced run's reference pass: Compile and PlanRunner::Run called
  /// separately, every sink detached.
  kBaseline,
  /// The traced run's measured pass: as kBaseline, with a private
  /// TraceRecorder and MetricsRegistry attached.
  kTraced,
};

/// fit-text's hashed feature width; the linalg probe runs at this size.
inline constexpr size_t kTextWidth = 1200;

/// ServerConfig::num_threads for every PipelineServer. At the fixed rates
/// a micro-batch holds one or two requests, so the kernels run inline on
/// the event loop; a wider pool measured mostly thread wake-ups.
inline constexpr size_t kServerThreads = 1;

/// Independent seed for generator `stream`, derived from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

keystone::ClusterResourceDescriptor Cluster();

double Median(std::vector<double> values);

/// Per-layer totals, summed over the traced pass (see README.md for how
/// each one is normalized when printed).
struct Layers {
  double compile_s = 0.0;
  double profile_s = 0.0;
  double profile_discarded_s = 0.0;
  double validate_s = 0.0;
  double fit_run_s = 0.0;
  double apply_s = 0.0;
  double node_wall_sum_s = 0.0;
  double solver_train_s = 0.0;
  double solver_profile_s = 0.0;
  double ops_train_s = 0.0;
  double ops_apply_s = 0.0;
  double kmeans_s = 0.0;
  double random_features_s = 0.0;
  double text_featurize_s = 0.0;
  double serve_run_s = 0.0;
  double serve_kernel_s = 0.0;
  double serve_batches = 0.0;
  double serve_batched_records = 0.0;
  double serve_rejected = 0.0;
  double serve_queue_high_water = 0.0;
  double pool_tasks = 0.0;
  double pool_busy_s = 0.0;
  double spans = 0.0;
  double reused_nodes = 0.0;
  double hits_memory = 0.0;
  double hits_disk = 0.0;
  double cache_evictions = 0.0;
  int fits = 0;
  int applies = 0;
  int serve_runs = 0;
};

/// Fixed-rate serving outcome, virtual-time side.
struct ServeVirtual {
  double p50_s = 0.0;
  double p99_s = 0.0;
  size_t samples = 0;
  double attainment = 0.0;
};

/// Records and wall accumulated over one or more applies; one apply_rps
/// sample.
struct ApplySample {
  double records = 0.0;
  double wall_s = 0.0;
};

/// One fixed-rate (or ladder) serving run.
struct ServeSample {
  double run_s = 0.0;  // PipelineServer::Run wall
  double completed = 0.0;
  ServeVirtual virtual_time;
};

/// A fitted pipeline offered for serving: its payload universe and the
/// width every response must decode to.
struct Tenant {
  std::string name;
  std::shared_ptr<keystone::FittedPipelineUntyped> fitted;
  std::shared_ptr<keystone::serve::RequestCodec> codec;
  size_t num_classes = 0;
};

/// Load for one workload's serving: open-loop Poisson arrivals per tenant
/// in virtual time.
struct ServeLoad {
  double rate_per_tenant = 0.0;    // the fixed rate, below saturation
  size_t requests_per_tenant = 0;  // at the fixed rate
  std::vector<double> ladder_rates;  // per tenant, ascending
  size_t ladder_requests_per_tenant = 0;
  /// Share of the measured seconds spent in rounds; serving runs fill the
  /// rest.
  double round_share = 0.5;
};

/// The benchmark's process-wide state.
class Env {
 public:
  explicit Env(const Options& options);
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  const Options& options() const { return options_; }
  size_t nproc() const { return nproc_; }
  Mode mode() const { return mode_; }
  void set_mode(Mode mode);

  /// Points `ctx` at the benchmark pool and at the sinks of the current
  /// mode (none outside kTraced).
  void Attach(keystone::ExecContext* ctx);

  // --- Operations (each one counted as attempted) --------------------------

  struct FitResult {
    std::shared_ptr<keystone::FittedPipelineUntyped> fitted;
    double wall_s = 0.0;
    double virtual_s = 0.0;  // optimize + total train seconds (kTimed)
    int reused_nodes = 0;
  };

  /// Fits a pipeline graph: PipelineExecutor::Fit in kTimed, separately
  /// spanned Compile and PlanRunner::Run(kFit) otherwise. `catalog` is
  /// optional cross-run state.
  FitResult Fit(const keystone::PipelineGraph& graph, int source, int sink,
                keystone::cache::ArtifactCatalog* catalog = nullptr);

  template <typename A, typename B>
  FitResult Fit(const keystone::Pipeline<A, B>& pipeline,
                keystone::cache::ArtifactCatalog* catalog = nullptr) {
    return Fit(*pipeline.graph(), pipeline.source(), pipeline.sink(),
               catalog);
  }

  /// FittedPipeline::Apply over `input`; adds its records and wall to
  /// `sample`.
  keystone::AnyDataset Apply(const keystone::FittedPipelineUntyped& fitted,
                             const keystone::AnyDataset& input,
                             ApplySample* sample);

  /// One PipelineServer::Run of every tenant at `rate_per_tenant`. Checks
  /// that every completed response decodes and that completed plus refused
  /// equals offered; with `count_requests`, each offered request is an
  /// operation and each refusal a failure (the fixed rate), otherwise the
  /// run as a whole is one operation (a ladder probe, where refusals are
  /// the expected sign of overload).
  ServeSample Serve(const std::vector<Tenant>& tenants, double rate_per_tenant,
                    size_t requests_per_tenant, bool count_requests);

  /// Counts one operation; a false `ok` counts it failed and keeps `what`.
  void Check(bool ok, const std::string& what);
  /// Counts `attempted` operations, of which `failed` failed.
  void Count(size_t attempted, size_t failed, const std::string& what);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  // --- Samples -------------------------------------------------------------

  std::vector<double> fit_walls;
  std::vector<double> fit_virtuals;
  /// Records per second of each ApplySample the workloads close.
  std::vector<double> apply_rps;
  void AddApplySample(const ApplySample& sample);
  Layers layers;
  /// Wall spent inside a round on the benchmark's own bookkeeping (trace
  /// aggregation, validation probes); subtracted from round walls.
  double bookkeeping_s = 0.0;
  /// Catalog counters from the traced pass's metrics registry.
  double MetricValue(const std::string& name) const;

  keystone::ThreadPool& pool() { return pool_; }

 private:
  /// Adds one fit's spans to `layers`: `profile` from Compile, `train`
  /// from the fit run.
  void AccumulateFitSpans(const keystone::PhysicalPlan& plan,
                          const std::vector<keystone::obs::TraceSpan>& profile,
                          const std::vector<keystone::obs::TraceSpan>& train);
  /// Adds one apply's (or, with `serve`, one serving run's) spans.
  void AccumulateSpans(const std::vector<keystone::obs::TraceSpan>& spans,
                       bool serve);
  /// Empties the recorder, counting its spans into obs.spans.
  std::vector<keystone::obs::TraceSpan> TakeSpans();

  const Options options_;
  const size_t nproc_;
  keystone::ThreadPool pool_;
  Mode mode_ = Mode::kTimed;
  keystone::obs::TraceRecorder recorder_;
  keystone::obs::MetricsRegistry registry_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// A workload: seeded inputs, then rounds of measured work.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from the seed (serve-mixed also fits its tenants
  /// here). Returns the wall spent in workloads::* generators.
  virtual double Setup(Env* env) = 0;

  /// One round: the workload's fits and applies.
  virtual void Round(Env* env) = 0;

  /// The pipelines to serve: those the last round (or set-up) fitted.
  virtual std::vector<Tenant> Tenants() const = 0;
  virtual ServeLoad Load() const = 0;
};

std::unique_ptr<Workload> MakeFitText();
std::unique_ptr<Workload> MakeFitImage();
std::unique_ptr<Workload> MakeServeMixed();
std::unique_ptr<Workload> MakeTuneGrid();

/// Scores argmax predictions of `scores` (one row per record) against
/// `labels`.
double ArgmaxAccuracy(const keystone::AnyDataset& scores,
                      const std::vector<int>& labels);

/// Direct calls of the src/linalg kernels at `dim`, each checked by a
/// residual; fills the linalg.* metrics.
struct LinalgProbe {
  double cholesky_s = 0.0;
  double cholesky_gflops = 0.0;
  double gemm_gflops = 0.0;
  double gram_gflops = 0.0;
};
LinalgProbe RunLinalgProbe(Env* env, size_t dim, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
