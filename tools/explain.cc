// explain: compile AND run shipped workloads, then report the full
// observability picture for each — the optimizer's decision provenance
// (physical-operator selections with margins, CSE merges, the greedy
// materialization ledger), the per-resource occupancy timeline of the run,
// and the cost-model calibration (estimated vs observed residuals). With
// --compile-only it prints each compiled PhysicalPlan instead, without the
// full-scale training pass.
//
// Usage: explain [--json] [--strict] [--runtime-only] [--none|--pipe-only]
//                [--fault-rate=R] [--fault-seed=S] [workload...]
//        explain --compile-only [--json] [--none|--pipe-only]
//                [--runtime-only] [workload...]
//   --json       machine-readable output (one JSON object per workload)
//   --strict     exit nonzero when any workload produces an empty decision
//                log, a non-finite calibration residual, or a live plan
//                node without a concrete statically inferred shape — no ⊤
//                on shipped workloads (the CI gate)
//   --runtime-only  also print the apply-masked (servable) plan view of the
//                fitted pipeline — what a PipelineServer would execute per
//                request after train-only nodes are stripped
//   --fault-rate=R  replay each fit under an injected fault schedule: task
//                failures at rate R per attempt (executor losses at R/4,
//                stragglers at R/2); fault recoveries then appear in the
//                decision log and the recovery timeline track
//   --fault-seed=S  seed of the injected fault schedule (default 42)
//   --compile-only  print each compiled plan (with --runtime-only: only
//                the servable view)
//   --none       optimize under OptimizationConfig::None()
//   --pipe-only  optimize under OptimizationConfig::PipeOnly()
//   workload     subset to explain (default: all six shipped workloads)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/plan_validator.h"
#include "src/cache/artifact_catalog.h"
#include "src/common/string_util.h"
#include "src/core/executor.h"
#include "src/obs/calibration.h"
#include "src/obs/metrics.h"
#include "src/obs/profile_store.h"
#include "src/obs/resource_timeline.h"
#include "src/obs/trace.h"
#include "src/sim/faults/fault_plan.h"
#include "src/sim/resources.h"
#include "tools/shipped_workloads.h"

namespace keystone {
namespace {

bool TakeValue(const char* arg, const char* prefix, std::string* out) {
  const size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *out = arg + n;
  return true;
}

/// Renders one warm-fit reuse decision as a JSON object.
std::string ReuseDecisionJson(const obs::ReuseDecision& d) {
  std::string out = "{\"node\":" + std::to_string(d.node_id) + ",\"name\":\"" +
                    JsonEscape(d.node_name) + "\",\"fingerprint\":\"" +
                    JsonEscape(d.fingerprint) + "\",\"accepted\":" +
                    (d.accepted ? "true" : "false");
  if (d.accepted) {
    out += ",\"tier\":\"" + JsonEscape(d.tier) +
           "\",\"load_seconds\":" + std::to_string(d.load_seconds) +
           ",\"recompute_seconds\":" + std::to_string(d.recompute_seconds) +
           ",\"pruned\":" + std::to_string(d.pruned.size());
  } else {
    out += ",\"reason\":\"" + JsonEscape(d.reason) + "\"";
  }
  return out + "}";
}

int Run(int argc, char** argv) {
  bool json = false;
  bool strict = false;
  bool runtime_only = false;
  bool compile_only = false;
  OptimizationConfig config = OptimizationConfig::Full();
  double fault_rate = 0.0;
  uint64_t fault_seed = 42;
  std::string value;
  std::vector<std::string> wanted;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--runtime-only") == 0) {
      runtime_only = true;
    } else if (std::strcmp(argv[i], "--compile-only") == 0) {
      compile_only = true;
    } else if (std::strcmp(argv[i], "--none") == 0) {
      config = OptimizationConfig::None();
    } else if (std::strcmp(argv[i], "--pipe-only") == 0) {
      config = OptimizationConfig::PipeOnly();
    } else if (TakeValue(argv[i], "--fault-rate=", &value)) {
      fault_rate = std::strtod(value.c_str(), nullptr);
    } else if (TakeValue(argv[i], "--fault-seed=", &value)) {
      fault_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: explain [--json] [--strict] [--runtime-only] "
                   "[--none|--pipe-only] [--fault-rate=R] [--fault-seed=S] "
                   "[workload...]\n"
                   "       explain --compile-only [--json] "
                   "[--none|--pipe-only] [--runtime-only] [workload...]\n");
      return 2;
    } else {
      wanted.emplace_back(argv[i]);
    }
  }

  faults::FaultInjectionConfig fault_config;
  fault_config.seed = fault_seed;
  fault_config.task_failure_rate = fault_rate;
  fault_config.executor_loss_rate = fault_rate / 4.0;
  fault_config.straggler_rate = fault_rate / 2.0;
  const faults::FaultPlan fault_plan(fault_config);

  const auto targets = tools::ShippedWorkloads();
  int matched = 0;
  int strict_failures = 0;
  int total_reuse_accepted = 0;
  bool first = true;
  if (json) std::printf("[");
  for (const tools::ShippedWorkload& target : targets) {
    if (!wanted.empty() &&
        std::find(wanted.begin(), wanted.end(), target.name) ==
            wanted.end()) {
      continue;
    }
    ++matched;
    const ClusterResourceDescriptor resources =
        ClusterResourceDescriptor::R3_4xlarge(4);
    if (compile_only) {
      const auto plan = PipelineExecutor(resources, config)
                            .Compile(*target.graph, target.placeholder,
                                     target.sink);
      if (json) {
        std::printf("%s{\"workload\":\"%s\",\"plan\":%s}",
                    first ? "" : ",\n", target.name.c_str(),
                    plan->ToJson(runtime_only).c_str());
      } else {
        std::printf("=== %s ===\n%s\n", target.name.c_str(),
                    plan->ToString(runtime_only).c_str());
      }
      first = false;
      continue;
    }

    // Per-workload observability sinks so each report covers exactly one
    // compile + fit, independent of the process-wide globals.
    obs::TraceRecorder tracer;
    obs::MetricsRegistry metrics;
    obs::ProfileStore store;
    obs::ResourceTimeline timeline;

    // In-process, memory-only artifact catalog: the cold fit below
    // publishes its pure-lineage intermediates, and a second (warm) fit
    // then exercises the cross-run ReusePass against them.
    cache::ArtifactCatalog catalog{cache::CatalogConfig{}};
    PipelineExecutor executor(resources, config);
    executor.context()->set_tracer(&tracer);
    executor.context()->set_metrics(&metrics);
    executor.context()->set_profile_store(&store);
    executor.context()->set_timeline(&timeline);
    executor.context()->set_artifact_catalog(&catalog);
    if (fault_plan.Enabled()) {
      executor.context()->set_fault_plan(&fault_plan);
    }

    PipelineReport report;
    const auto fitted = executor.FitGraph(*target.graph, target.placeholder,
                                          target.sink, &report);
    const obs::OptimizerDecisionLog& log = *fitted->plan().decision_log;
    const obs::CalibrationReport calibration =
        obs::BuildCalibrationFromSpans(tracer.Spans(), resources);

    // Warm fit: the same workload again, against the catalog the cold fit
    // just populated — the ReusePass rewrites the fingerprint-matched
    // prefix into catalog reads. Separate sinks keep the primary report
    // above identical to a cold explain.
    obs::TraceRecorder warm_tracer;
    obs::MetricsRegistry warm_metrics;
    obs::ResourceTimeline warm_timeline;
    PipelineExecutor warm_executor(resources, config);
    warm_executor.context()->set_tracer(&warm_tracer);
    warm_executor.context()->set_metrics(&warm_metrics);
    warm_executor.context()->set_timeline(&warm_timeline);
    warm_executor.context()->set_artifact_catalog(&catalog);
    if (fault_plan.Enabled()) {
      warm_executor.context()->set_fault_plan(&fault_plan);
    }
    PipelineReport warm_report;
    const auto warm = warm_executor.FitGraph(*target.graph, target.placeholder,
                                             target.sink, &warm_report);
    const std::vector<obs::ReuseDecision> reuse_decisions =
        warm->plan().decision_log->ReuseDecisions();
    int reuse_accepted = 0;
    for (const obs::ReuseDecision& d : reuse_decisions) {
      if (d.accepted) ++reuse_accepted;
    }
    total_reuse_accepted += reuse_accepted;

    // Statically inferred dataflow facts for every live plan node,
    // surfaced alongside the decision log. Under --strict, a live node
    // whose inferred shape is still ⊤ (or collapsed to ⊥) fails the gate:
    // shipped workloads must infer concrete shapes end-to-end.
    const PhysicalPlan& plan = fitted->plan();
    int unshaped = 0;
    std::string dataflow_json = "[";
    bool first_node = true;
    for (const PlannedNode& pn : plan.nodes) {
      if (!pn.train && !pn.runtime) continue;
      const bool concrete = pn.dataflow_annotated &&
                            !pn.inferred_shape.IsTop() &&
                            !pn.inferred_shape.IsBottom();
      if (!concrete) {
        ++unshaped;
        if (strict) {
          std::fprintf(stderr,
                       "explain: %s: node %d '%s' has no concrete inferred "
                       "shape (%s)\n",
                       target.name.c_str(), pn.id, pn.name.c_str(),
                       pn.dataflow_annotated
                           ? pn.inferred_shape.ToString().c_str()
                           : "unannotated");
        }
      }
      dataflow_json +=
          (first_node ? std::string() : std::string(",")) + "{\"node\":" +
          std::to_string(pn.id) + ",\"name\":\"" + JsonEscape(pn.name) +
          "\",\"shape\":\"" + JsonEscape(pn.inferred_shape.ToString()) +
          "\",\"cardinality\":\"" + JsonEscape(pn.cardinality.ToString()) +
          "\",\"effect\":\"" + EffectClassName(pn.effect) + "\"}";
      first_node = false;
    }
    dataflow_json += "]";

    if (strict) {
      if (log.Empty()) {
        std::fprintf(stderr, "explain: %s: empty decision log\n",
                     target.name.c_str());
        ++strict_failures;
      }
      if (!calibration.AllFinite()) {
        std::fprintf(stderr,
                     "explain: %s: non-finite calibration residual\n",
                     target.name.c_str());
        ++strict_failures;
      }
      strict_failures += unshaped;

      // Fusion provenance: every fused region must trace back to a
      // recorded fusibility candidate (its members a contiguous run of the
      // candidate's chain), every candidate must have been judged, and
      // every rejection must carry a reason.
      const auto candidates = log.FusionCandidates();
      const auto decisions = log.FusionDecisions();
      for (const FusedRegion& region : plan.fused_regions) {
        bool covered = false;
        for (const obs::FusionCandidate& cand : candidates) {
          for (size_t at = 0;
               !covered && at + region.nodes.size() <= cand.nodes.size();
               ++at) {
            covered = std::equal(region.nodes.begin(), region.nodes.end(),
                                 cand.nodes.begin() + at);
          }
          if (covered) break;
        }
        if (!covered) {
          std::fprintf(stderr,
                       "explain: %s: fused region r%d matches no recorded "
                       "fusibility candidate\n",
                       target.name.c_str(), region.id);
          ++strict_failures;
        }
      }
      for (size_t i = 0; i < candidates.size(); ++i) {
        bool judged = false;
        for (const obs::FusionDecision& d : decisions) {
          if (d.candidate_index == static_cast<int>(i)) judged = true;
        }
        if (!judged) {
          std::fprintf(stderr,
                       "explain: %s: fusibility candidate %zu was never "
                       "judged by the fusion pass\n",
                       target.name.c_str(), i);
          ++strict_failures;
        }
      }
      for (const obs::FusionDecision& d : decisions) {
        if (!d.accepted && d.reason.empty()) {
          std::fprintf(stderr,
                       "explain: %s: rejected fusion candidate %d has no "
                       "logged reason\n",
                       target.name.c_str(), d.candidate_index);
          ++strict_failures;
        }
      }

      // Cross-run reuse provenance over the warm fit: every rejection must
      // carry a reason, and the rewritten plan must pass the reuse.* rules
      // both structurally and against the live catalog.
      for (const obs::ReuseDecision& d : reuse_decisions) {
        if (!d.accepted && d.reason.empty()) {
          std::fprintf(stderr,
                       "explain: %s: rejected reuse candidate (node %d) has "
                       "no logged reason\n",
                       target.name.c_str(), d.node_id);
          ++strict_failures;
        }
      }
      analysis::ValidationReport reuse_report =
          analysis::ValidateReuseMarkers(warm->plan());
      reuse_report.Merge(cache::ValidateReuse(warm->plan(), catalog));
      if (!reuse_report.ok()) {
        std::fprintf(stderr, "explain: %s: warm plan fails reuse.* rules:\n%s",
                     target.name.c_str(), reuse_report.ToString().c_str());
        ++strict_failures;
      }
    }

    std::string reuse_json =
        "{\"cold_total_seconds\":" +
        std::to_string(report.total_train_seconds) +
        ",\"warm_total_seconds\":" +
        std::to_string(warm_report.total_train_seconds) +
        ",\"accepted\":" + std::to_string(reuse_accepted) + ",\"decisions\":[";
    for (size_t i = 0; i < reuse_decisions.size(); ++i) {
      if (i > 0) reuse_json += ",";
      reuse_json += ReuseDecisionJson(reuse_decisions[i]);
    }
    reuse_json += "]}";

    if (json) {
      std::printf(
          "%s{\"workload\":\"%s\",\"decision_log\":%s,"
          "\"timeline\":%s,\"calibration\":%s,\"dataflow\":%s,\"reuse\":%s",
          first ? "" : ",\n", target.name.c_str(), log.ToJson().c_str(),
          timeline.ToJson().c_str(), calibration.ToJson().c_str(),
          dataflow_json.c_str(), reuse_json.c_str());
      if (runtime_only) {
        std::printf(",\"servable_plan\":%s",
                    fitted->plan().ToJson(true).c_str());
      }
      std::printf("}");
    } else {
      std::printf("=== %s ===\n%s\n--- resource timeline ---\n%s\n"
                  "--- calibration ---\n%s\n--- inferred dataflow ---\n",
                  target.name.c_str(), log.ToString().c_str(),
                  timeline.ToString().c_str(),
                  calibration.ToString().c_str());
      for (const PlannedNode& pn : plan.nodes) {
        if (!pn.train && !pn.runtime) continue;
        std::printf("  node %d %-24s shape=%s card=%s effect=%s\n", pn.id,
                    pn.name.c_str(), pn.inferred_shape.ToString().c_str(),
                    pn.cardinality.ToString().c_str(),
                    EffectClassName(pn.effect));
      }
      std::printf("--- cross-run reuse (warm fit) ---\n");
      std::printf("  cold total=%s warm total=%s\n",
                  HumanSeconds(report.total_train_seconds).c_str(),
                  HumanSeconds(warm_report.total_train_seconds).c_str());
      for (const obs::ReuseDecision& d : reuse_decisions) {
        if (d.accepted) {
          std::printf(
              "  node %d %s reused from %s: load=%s vs recompute=%s "
              "(prunes %zu)\n",
              d.node_id, d.node_name.c_str(), d.tier.c_str(),
              HumanSeconds(d.load_seconds).c_str(),
              HumanSeconds(d.recompute_seconds).c_str(), d.pruned.size());
        } else {
          std::printf("  node %d %s rejected: %s\n", d.node_id,
                      d.node_name.c_str(), d.reason.c_str());
        }
      }
      if (runtime_only) {
        std::printf("--- servable plan (runtime mask) ---\n%s\n",
                    fitted->plan().ToString(true).c_str());
      }
    }
    first = false;
  }
  if (json) std::printf("]\n");
  if (!wanted.empty() && matched != static_cast<int>(wanted.size())) {
    std::fprintf(stderr, "explain: unknown workload name\n");
    return 2;
  }
  // The warm fits ran against catalogs the cold fits populated; a shipped
  // workload set where not a single reuse lands means the rewrite is dead.
  if (strict && !compile_only && matched > 0 && total_reuse_accepted == 0) {
    std::fprintf(stderr,
                 "explain: no workload produced an accepted cross-run reuse "
                 "decision on its warm fit\n");
    ++strict_failures;
  }
  return strict_failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace keystone

int main(int argc, char** argv) { return keystone::Run(argc, argv); }
