// fit-text and fit-image: one pipeline fitted per round, then applied to a
// scoring set and served (see README.md for why each was chosen).

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

constexpr int kAppliesPerRound = 3;

/// Shared round body: fit, batch applies over the scoring set with an
/// accuracy floor, and keep the fitted pipeline for serving.
template <typename In>
void FitApplyRound(Env* env, const keystone::Pipeline<In, std::vector<double>>&
                                 pipeline,
                   const std::shared_ptr<keystone::DistDataset<In>>& scoring,
                   const std::vector<int>& labels, double accuracy_floor,
                   const std::string& name, Tenant* tenant) {
  const Env::FitResult fit = env->Fit(pipeline);
  env->fit_walls.push_back(fit.wall_s);
  env->fit_virtuals.push_back(fit.virtual_s);
  // Several applies per fit, each its own apply_rps sample: one apply is
  // short, so more of them steady the median.
  for (int i = 0; i < kAppliesPerRound; ++i) {
    ApplySample sample;
    const keystone::AnyDataset scores =
        env->Apply(*fit.fitted, scoring, &sample);
    env->AddApplySample(sample);
    const double accuracy = ArgmaxAccuracy(scores, labels);
    env->Check(accuracy >= accuracy_floor,
               name + " accuracy " + std::to_string(accuracy) +
                   " below floor " + std::to_string(accuracy_floor));
  }
  tenant->fitted = fit.fitted;
}

/// The Amazon-like text pipeline (BuildAmazonPipeline): the exact sparse
/// solver's O(d^3) normal-equation solve runs in both profile passes and
/// in training, so linear algebra and profiling dominate the fit, while
/// the text operators carry the batch apply and serving.
class FitText : public Workload {
 public:
  static constexpr size_t kTrainDocs = 2000;
  static constexpr size_t kScoringDocs = 40000;

  double Setup(Env* env) override {
    const Timer gen;
    corpus_ = workloads::AmazonLike(kTrainDocs, kScoringDocs, 30, 1000,
                                    SubSeed(env->options().seed, 1));
    const double gen_s = gen.ElapsedSeconds();
    keystone::LinearSolverConfig solver;
    solver.num_classes = corpus_.num_classes;
    solver.lbfgs_iterations = 20;
    pipeline_ = std::make_unique<
        keystone::Pipeline<std::string, std::vector<double>>>(
        workloads::BuildAmazonPipeline(corpus_, kTextWidth, solver));
    tenant_.name = "amazon";
    tenant_.num_classes = static_cast<size_t>(corpus_.num_classes);
    tenant_.codec =
        std::make_shared<TypedRequestCodec<std::string, std::vector<double>>>(
            corpus_.test_docs->Collect());
    return gen_s;
  }

  void Round(Env* env) override {
    FitApplyRound(env, *pipeline_, corpus_.test_docs, corpus_.test_label_ids,
                  0.9, "fit-text", &tenant_);
  }

  std::vector<Tenant> Tenants() const override { return {tenant_}; }

  ServeLoad Load() const override {
    ServeLoad load;
    load.rate_per_tenant = 8.0;
    load.requests_per_tenant = 3000;
    load.ladder_rates = {8.0, 16.0, 32.0, 64.0, 128.0};
    load.ladder_requests_per_tenant = 2000;
    return load;
  }

 private:
  workloads::TextCorpus corpus_;
  std::unique_ptr<keystone::Pipeline<std::string, std::vector<double>>>
      pipeline_;
  Tenant tenant_;
};

/// The CIFAR-like image pipeline (BuildCifarPipeline): patch extraction,
/// ZCA whitening and a KMeans dictionary on the thread pool dominate; the
/// solver is tiny. The training set is several times the large profile
/// sample (1024), so the profile passes stay a minority of the fit.
class FitImage : public Workload {
 public:
  static constexpr size_t kTrainImages = 4000;
  static constexpr size_t kScoringImages = 4000;

  double Setup(Env* env) override {
    const Timer gen;
    corpus_ = workloads::TexturedImages(kTrainImages, kScoringImages, 16, 3, 4,
                                        0.05, SubSeed(env->options().seed, 2));
    const double gen_s = gen.ElapsedSeconds();
    keystone::LinearSolverConfig solver;
    solver.num_classes = corpus_.num_classes;
    pipeline_ = std::make_unique<
        keystone::Pipeline<keystone::Image, std::vector<double>>>(
        workloads::BuildCifarPipeline(corpus_, 5, 3, 8, solver));
    tenant_.name = "cifar";
    tenant_.num_classes = static_cast<size_t>(corpus_.num_classes);
    tenant_.codec = std::make_shared<
        TypedRequestCodec<keystone::Image, std::vector<double>>>(
        corpus_.test->Collect());
    return gen_s;
  }

  void Round(Env* env) override {
    FitApplyRound(env, *pipeline_, corpus_.test, corpus_.test_label_ids, 0.5,
                  "fit-image", &tenant_);
  }

  std::vector<Tenant> Tenants() const override { return {tenant_}; }

  ServeLoad Load() const override {
    ServeLoad load;
    load.rate_per_tenant = 8.0;
    load.requests_per_tenant = 1500;
    load.ladder_rates = {8.0, 16.0, 32.0, 64.0, 128.0};
    load.ladder_requests_per_tenant = 1000;
    return load;
  }

 private:
  workloads::ImageCorpus corpus_;
  std::unique_ptr<keystone::Pipeline<keystone::Image, std::vector<double>>>
      pipeline_;
  Tenant tenant_;
};

}  // namespace

std::unique_ptr<Workload> MakeFitText() { return std::make_unique<FitText>(); }
std::unique_ptr<Workload> MakeFitImage() {
  return std::make_unique<FitImage>();
}

}  // namespace perfbench
