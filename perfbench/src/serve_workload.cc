// serve-mixed: two tenants fitted during set-up, then many small applies
// through PipelineServer (see README.md).

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/timer.h"
#include "src/workloads/datasets.h"
#include "src/workloads/pipelines.h"

namespace perfbench {
namespace {

using keystone::Timer;
using keystone::serve::TypedRequestCodec;
namespace workloads = keystone::workloads;

/// The bench_serving tenants: Amazon-like text classification and the
/// YouTube-like dense model on one server.
class ServeMixed : public Workload {
 public:
  double Setup(Env* env) override {
    const uint64_t seed = env->options().seed;
    const Timer gen;
    text_ = workloads::AmazonLike(600, 20000, 30, 1000, SubSeed(seed, 3));
    dense_ = workloads::DenseClasses(2500, 20000, 256, 8, 7.0, SubSeed(seed, 4));
    const double gen_s = gen.ElapsedSeconds();

    keystone::LinearSolverConfig text_solver;
    text_solver.num_classes = text_.num_classes;
    text_solver.lbfgs_iterations = 5;
    const Env::FitResult text_fit =
        env->Fit(workloads::BuildAmazonPipeline(text_, 1000, text_solver));
    keystone::LinearSolverConfig dense_solver;
    dense_solver.num_classes = dense_.num_classes;
    const Env::FitResult dense_fit =
        env->Fit(workloads::BuildYoutubePipeline(dense_, dense_solver));
    // One sample per set-up: the mean wall per tenant fit.
    env->fit_walls.push_back(0.5 * (text_fit.wall_s + dense_fit.wall_s));
    env->fit_virtuals.push_back(0.5 *
                                (text_fit.virtual_s + dense_fit.virtual_s));

    tenants_.clear();
    tenants_.push_back(
        {"amazon", text_fit.fitted,
         std::make_shared<TypedRequestCodec<std::string, std::vector<double>>>(
             text_.test_docs->Collect()),
         static_cast<size_t>(text_.num_classes)});
    tenants_.push_back(
        {"youtube", dense_fit.fitted,
         std::make_shared<
             TypedRequestCodec<std::vector<double>, std::vector<double>>>(
             dense_.test->Collect()),
         static_cast<size_t>(dense_.num_classes)});
    return gen_s;
  }

  /// Batch-scores each tenant's payload universe with an accuracy floor;
  /// both applies make one apply_rps sample.
  void Round(Env* env) override {
    ApplySample sample;
    const keystone::AnyDataset text_scores =
        env->Apply(*tenants_[0].fitted, text_.test_docs, &sample);
    env->Check(ArgmaxAccuracy(text_scores, text_.test_label_ids) >= 0.9,
               "serve-mixed amazon accuracy below floor");
    const keystone::AnyDataset dense_scores =
        env->Apply(*tenants_[1].fitted, dense_.test, &sample);
    env->Check(ArgmaxAccuracy(dense_scores, dense_.test_label_ids) >= 0.9,
               "serve-mixed youtube accuracy below floor");
    env->AddApplySample(sample);
  }

  std::vector<Tenant> Tenants() const override { return tenants_; }

  ServeLoad Load() const override {
    ServeLoad load;
    load.rate_per_tenant = 8.0;
    load.requests_per_tenant = 3000;
    load.ladder_rates = {8.0, 12.0, 24.0};
    load.ladder_requests_per_tenant = 2000;
    load.round_share = 0.2;
    return load;
  }

 private:
  workloads::TextCorpus text_;
  workloads::DenseCorpus dense_;
  std::vector<Tenant> tenants_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed() {
  return std::make_unique<ServeMixed>();
}

}  // namespace perfbench
