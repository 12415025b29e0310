// tune-grid: a 20-variant solver grid over one shared random-feature
// prefix, with one ArtifactCatalog per round (see README.md).

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/timer.h"
#include "src/ops/features.h"
#include "src/solvers/solvers.h"
#include "src/workloads/datasets.h"

namespace perfbench {
namespace {

using keystone::Timer;
using DenseVec = std::vector<double>;
namespace workloads = keystone::workloads;

/// bench_tuning_reuse's grid: every variant shares the pure featurization
/// prefix `blocks` x RandomFeatures -> Gather -> Concat (identical seeds,
/// so its lineage fingerprints match) and differs only in the solver. The
/// first fit of a round publishes the prefix to a fresh catalog; the other
/// nineteen read it back.
class TuneGrid : public Workload {
 public:
  static constexpr size_t kBlocks = 4;
  static constexpr size_t kBlockDim = 32;

  double Setup(Env* env) override {
    const Timer gen;
    corpus_ = workloads::DenseClasses(1000, 4000, 512, 4, 4.0,
                                      SubSeed(env->options().seed, 5));
    const double gen_s = gen.ElapsedSeconds();
    // Laptop-scale records standing in for a cluster-scale dataset, so the
    // simulator prices load and featurization at two-million-record scale.
    corpus_.train->set_virtual_scale(2000.0);
    corpus_.train_labels->set_virtual_scale(2000.0);
    tenant_.name = "tuned";
    tenant_.num_classes = static_cast<size_t>(corpus_.num_classes);
    tenant_.codec = std::make_shared<
        keystone::serve::TypedRequestCodec<DenseVec, DenseVec>>(
        corpus_.test->Collect());
    return gen_s;
  }

  void Round(Env* env) override {
    // A fresh catalog root per round: state left by an earlier round or a
    // crashed run must not turn the cold publish into a warm read.
    const std::filesystem::path root =
        std::filesystem::path(env->options().scratch) /
        ("tune-grid-" + std::to_string(getpid()) + "-" +
         std::to_string(rounds_++));
    std::filesystem::remove_all(root);
    keystone::cache::CatalogConfig config;
    config.root = root.string();
    keystone::cache::ArtifactCatalog catalog(config);

    ApplySample sample;  // the round's 20 applies make one sample
    const double l2_grid[] = {1e-6, 1e-4, 1e-2, 1.0};
    const int iter_grid[] = {3, 5, 8, 12, 16};
    bool first = true;
    for (const double l2 : l2_grid) {
      for (const int iters : iter_grid) {
        keystone::LinearSolverConfig solver;
        solver.num_classes = corpus_.num_classes;
        solver.l2_reg = l2;
        solver.lbfgs_iterations = iters;
        const Env::FitResult fit = env->Fit(Variant(solver), &catalog);
        env->fit_walls.push_back(fit.wall_s);
        env->fit_virtuals.push_back(fit.virtual_s);
        if (!first) {
          env->Check(fit.reused_nodes > 0,
                     "tune-grid warm variant reused no catalog node");
        }
        first = false;
        const keystone::AnyDataset scores =
            env->Apply(*fit.fitted, corpus_.test, &sample);
        const double accuracy = ArgmaxAccuracy(scores, corpus_.test_label_ids);
        env->Check(accuracy >= 0.5, "tune-grid accuracy " +
                                        std::to_string(accuracy) +
                                        " below floor 0.5");
        tenant_.fitted = fit.fitted;
      }
    }
    env->AddApplySample(sample);
    if (env->mode() == Mode::kTraced) {
      env->layers.cache_evictions +=
          static_cast<double>(catalog.Stats().evictions);
    }
    std::filesystem::remove_all(root);
  }

  std::vector<Tenant> Tenants() const override { return {tenant_}; }

  ServeLoad Load() const override {
    ServeLoad load;
    load.rate_per_tenant = 8.0;
    load.requests_per_tenant = 2000;
    load.ladder_rates = {8.0, 16.0, 32.0, 64.0, 128.0};
    load.ladder_requests_per_tenant = 2000;
    load.round_share = 0.75;
    return load;
  }

 private:
  keystone::Pipeline<DenseVec, DenseVec> Variant(
      const keystone::LinearSolverConfig& solver) const {
    const size_t input_dim = corpus_.train->partitions().front().front().size();
    auto input = keystone::PipelineInput<DenseVec>("Frame");
    std::vector<keystone::Pipeline<DenseVec, DenseVec>> branches;
    for (size_t b = 0; b < kBlocks; ++b) {
      branches.push_back(
          input.AndThen(std::make_shared<keystone::CosineRandomFeatures>(
              input_dim, kBlockDim, 0.02, 41 + 101 * b)));
    }
    return keystone::Pipeline<DenseVec, DenseVec>::Gather(branches)
        .AndThen(std::make_shared<keystone::ConcatFeatures>())
        .AndThenLogicalEstimator<DenseVec>(
            keystone::MakeDenseLinearSolver(solver), corpus_.train,
            corpus_.train_labels);
  }

  workloads::DenseCorpus corpus_;
  Tenant tenant_;
  int rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTuneGrid() {
  return std::make_unique<TuneGrid>();
}

}  // namespace perfbench
