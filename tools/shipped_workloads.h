#ifndef KEYSTONE_TOOLS_SHIPPED_WORKLOADS_H_
#define KEYSTONE_TOOLS_SHIPPED_WORKLOADS_H_

// The six shipped workload pipelines on tiny synthetic corpora, shared by
// the static-analysis front-ends (pipeline_lint, explain). Graph shape
// does not depend on corpus size, so the corpora stay small enough that
// compiling a plan (including the sampling passes) is fast.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/workloads/datasets.h"
#include "src/workloads/pipelines.h"

namespace keystone {
namespace tools {

struct ShippedWorkload {
  std::string name;
  std::shared_ptr<PipelineGraph> graph;
  int placeholder = -1;
  int sink = -1;
};

template <typename A, typename B>
ShippedWorkload MakeWorkload(std::string name, const Pipeline<A, B>& pipe) {
  ShippedWorkload workload;
  workload.name = std::move(name);
  workload.graph = pipe.graph();
  workload.placeholder = pipe.source();
  workload.sink = pipe.sink();
  return workload;
}

/// Builds the logical graph of every shipped workload.
inline std::vector<ShippedWorkload> ShippedWorkloads() {
  using workloads::AmazonLike;
  using workloads::BuildAmazonPipeline;
  using workloads::BuildCifarPipeline;
  using workloads::BuildImageNetPipeline;
  using workloads::BuildTimitPipeline;
  using workloads::BuildVocPipeline;
  using workloads::BuildYoutubePipeline;
  using workloads::DenseClasses;
  using workloads::DenseCorpus;
  using workloads::ImageCorpus;
  using workloads::TextCorpus;
  using workloads::TexturedImages;
  std::vector<ShippedWorkload> targets;

  LinearSolverConfig solver;
  solver.num_classes = 2;

  const TextCorpus amazon = AmazonLike(32, 8, 10, 200, 7);
  targets.push_back(
      MakeWorkload("amazon", BuildAmazonPipeline(amazon, 256, solver)));

  LinearSolverConfig dense_solver;
  dense_solver.num_classes = 3;
  const DenseCorpus timit = DenseClasses(32, 8, 16, 3, 1.0, 7);
  targets.push_back(MakeWorkload(
      "timit", BuildTimitPipeline(timit, 2, 8, 0.5, dense_solver, 7)));

  const ImageCorpus images = TexturedImages(8, 4, 32, 1, 3, 0.1, 7);
  targets.push_back(MakeWorkload(
      "voc", BuildVocPipeline(images, 4, 8, 4, dense_solver)));
  targets.push_back(MakeWorkload(
      "imagenet", BuildImageNetPipeline(images, 4, 8, 4, dense_solver)));
  targets.push_back(MakeWorkload(
      "cifar", BuildCifarPipeline(images, 5, 3, 8, dense_solver)));

  const DenseCorpus youtube = DenseClasses(32, 8, 16, 3, 1.0, 7);
  targets.push_back(
      MakeWorkload("youtube", BuildYoutubePipeline(youtube, dense_solver)));
  return targets;
}

}  // namespace tools
}  // namespace keystone

#endif  // KEYSTONE_TOOLS_SHIPPED_WORKLOADS_H_
