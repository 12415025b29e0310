// Repository benchmark program. Runs one workload through the library's
// public API and prints, as its last line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is a JSON detail record: build
// provenance, thread counts, sample counts and failed checks.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --scratch DIR
// See perfbench/README.md.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/timer.h"

namespace perfbench {
namespace {

using keystone::Timer;

constexpr int kSetups = 5;
constexpr double kSloSeconds = 4.0;

/// Ordered (name, value, unit) triples for the result line.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": \"",
                    entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name + "\": " + buf +
             entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ",") + Num(values[i]);
  }
  return out + "]";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
      have_seconds = options->seconds > 0.0;
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--scratch") {
      options->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         !options->scratch.empty();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "fit-text") return MakeFitText();
  if (name == "fit-image") return MakeFitImage();
  if (name == "serve-mixed") return MakeServeMixed();
  if (name == "tune-grid") return MakeTuneGrid();
  return nullptr;
}

/// One round of the workload's fits and applies. Returns its wall without
/// the benchmark's own bookkeeping.
double RunRound(Env* env, Workload* workload) {
  const double book = env->bookkeeping_s;
  const Timer wall;
  workload->Round(env);
  const double work_s = wall.ElapsedSeconds() - (env->bookkeeping_s - book);
  // Hand freed memory back after every set-up, round and serving run, so
  // peak_rss_mb measures one step's working set rather than how the
  // allocator's free lists grew.
  malloc_trim(0);
  return work_s;
}

/// One fixed-rate serving run of the workload's fitted pipelines.
ServeSample RunServe(Env* env, Workload* workload) {
  const ServeLoad load = workload->Load();
  const ServeSample sample =
      env->Serve(workload->Tenants(), load.rate_per_tenant,
                 load.requests_per_tenant, /*count_requests=*/true);
  malloc_trim(0);
  return sample;
}

/// Rounds and serving runs interleave, so a slow stretch of the machine
/// lands on both kinds of sample: the next step is a round while rounds
/// hold less than their share of the time so far (and always first).
bool NextIsRound(double round_s, double elapsed_s, double round_share) {
  return round_s == 0.0 || round_s < elapsed_s * round_share;
}

/// End-to-end metrics: interleaved rounds and fixed-rate serving runs for
/// the measured seconds, then the rate ladder.
void TimedRun(Env* env, Workload* workload,
              const std::vector<double>& setup_walls, MetricList* metrics,
              std::string* detail) {
  env->set_mode(Mode::kTimed);
  const ServeLoad load = workload->Load();
  const double seconds = env->options().seconds;
  std::vector<double> sweep_s, serve_rps;
  std::vector<ServeSample> serves;
  double round_s = 0.0;
  const Timer measure;
  do {
    if (NextIsRound(round_s, measure.ElapsedSeconds(), load.round_share)) {
      const Timer wall;
      sweep_s.push_back(RunRound(env, workload));
      round_s += wall.ElapsedSeconds();
    } else {
      serves.push_back(RunServe(env, workload));
      serve_rps.push_back(Ratio(serves.back().completed, serves.back().run_s));
    }
  } while (measure.ElapsedSeconds() < seconds || serves.empty());

  // The virtual-time side of serving is deterministic: every fixed-rate
  // run must report the same latencies.
  const ServeVirtual fixed = serves.front().virtual_time;
  bool same = true;
  for (const ServeSample& serve : serves) {
    same = same && serve.virtual_time.p50_s == fixed.p50_s &&
           serve.virtual_time.p99_s == fixed.p99_s &&
           serve.virtual_time.samples == fixed.samples;
  }
  env->Check(same, "fixed-rate virtual latencies differ between runs");

  // Rate ladder: the highest offered rate whose p99 meets the SLO with no
  // refusals, stopping at the first rate that misses.
  const std::vector<Tenant> tenants = workload->Tenants();
  double slo_rate = 0.0;
  std::string ladder = "[";
  for (const double rate : load.ladder_rates) {
    const ServeVirtual v =
        env->Serve(tenants, rate, load.ladder_requests_per_tenant,
                   /*count_requests=*/false)
            .virtual_time;
    const double offered = rate * static_cast<double>(tenants.size());
    ladder += (ladder.size() > 1 ? "," : "") + std::string("{\"rate_rps\":") +
              Num(offered) + ",\"p99_vs\":" + Num(v.p99_s) +
              ",\"completed\":" + std::to_string(v.samples) + "}";
    if (v.p99_s > kSloSeconds ||
        v.samples != load.ladder_requests_per_tenant * tenants.size()) {
      break;
    }
    slo_rate = offered;
  }
  ladder += "]";

  metrics->Add("setup_s", Median(setup_walls), "s");
  metrics->Add("fit_s", Median(env->fit_walls), "s");
  metrics->Add("sweep_s", Median(sweep_s), "s");
  metrics->Add("apply_rps", Median(env->apply_rps), "1/s");
  metrics->Add("virtual_fit_s", Median(env->fit_virtuals), "vs");
  metrics->Add("serve_rps", Median(serve_rps), "1/s");
  metrics->Add("serve_p50_vs", fixed.p50_s, "vs");
  metrics->Add("serve_p99_vs", fixed.p99_s, "vs");
  metrics->Add("serve_slo_rate_rps", slo_rate, "1/s");
  metrics->Add("serve_slo_attainment", fixed.attainment, "ratio");
  metrics->Add("peak_rss_mb", PeakRssMb(), "MB");

  *detail += ",\"samples\":{\"setup_s\":" + NumList(setup_walls) +
             ",\"fit_s\":" + NumList(env->fit_walls) +
             ",\"sweep_s\":" + NumList(sweep_s) +
             ",\"apply_rps\":" + NumList(env->apply_rps) +
             ",\"serve_rps\":" + NumList(serve_rps) + "}" +
             ",\"serve_latency_samples\":" + std::to_string(fixed.samples) +
             ",\"fixed_rate_rps\":" +
             Num(load.rate_per_tenant * static_cast<double>(tenants.size())) +
             ",\"ladder\":" + ladder;
}

/// Per-layer metrics from traced rounds and serving runs, each alternated
/// with an untraced one of the same work; the difference of their walls is
/// the tracing overhead.
void TracedRun(Env* env, Workload* workload, double gen_s,
               MetricList* metrics, std::string* detail) {
  const ServeLoad load = workload->Load();
  const double seconds = env->options().seconds;
  Layers& l = env->layers;
  // One untimed round and serving run first, so both passes start warm.
  env->set_mode(Mode::kBaseline);
  RunRound(env, workload);
  RunServe(env, workload);

  double baseline_s = 0.0;
  double traced_s = 0.0;
  double traced_fit_s = 0.0;
  int rounds = 0;
  double pool_tasks = 0.0;
  double pool_busy_s = 0.0;
  // Runs `step` untraced, then traced; returns nothing, accumulates walls.
  auto pair = [&](const std::function<double()>& step) {
    env->set_mode(Mode::kBaseline);
    baseline_s += step();
    env->set_mode(Mode::kTraced);
    const keystone::ThreadPool::Stats before = env->pool().stats();
    traced_s += step();
    const keystone::ThreadPool::Stats after = env->pool().stats();
    pool_tasks +=
        static_cast<double>(after.tasks_executed - before.tasks_executed);
    pool_busy_s += after.busy_seconds - before.busy_seconds;
  };
  double round_s = 0.0;
  const Timer measure;
  do {
    if (NextIsRound(round_s, measure.ElapsedSeconds(), load.round_share)) {
      const Timer wall;
      pair([&] {
        const size_t fits_before = env->fit_walls.size();
        const double work_s = RunRound(env, workload);
        if (env->mode() == Mode::kTraced) {
          for (size_t f = fits_before; f < env->fit_walls.size(); ++f) {
            traced_fit_s += env->fit_walls[f];
          }
          ++rounds;
        }
        return work_s;
      });
      round_s += wall.ElapsedSeconds();
    } else {
      pair([&] { return RunServe(env, workload).run_s; });
    }
  } while (measure.ElapsedSeconds() < seconds || l.serve_runs == 0);

  l.pool_tasks += pool_tasks;
  l.pool_busy_s += pool_busy_s;
  const LinalgProbe probe =
      RunLinalgProbe(env, kTextWidth, SubSeed(env->options().seed, 6));

  const double fits = std::max(1, l.fits);
  const double applies = std::max(1, l.applies);
  const double serves = std::max(1, l.serve_runs);
  const double per_round = 1.0 / rounds;
  const double accepted = env->MetricValue("catalog.reuse.accepted");
  const double rejected = env->MetricValue("catalog.reuse.rejected");
  metrics->Add("workloads.gen_s", gen_s, "s");
  metrics->Add("optimizer.compile_s", l.compile_s / fits, "s");
  metrics->Add("optimizer.profile_s", l.profile_s / fits, "s");
  metrics->Add("optimizer.profile_discarded_s", l.profile_discarded_s / fits,
               "s");
  metrics->Add("optimizer.profile_useful_ratio",
               Ratio(l.profile_s - l.profile_discarded_s, l.profile_s),
               "ratio");
  metrics->Add("optimizer.passes_s", (l.compile_s - l.profile_s) / fits, "s");
  metrics->Add("analysis.validate_s", l.validate_s / fits, "s");
  metrics->Add("core.fit_run_s", l.fit_run_s / fits, "s");
  metrics->Add("core.apply_s", l.apply_s / applies, "s");
  metrics->Add("core.node_wall_sum_s", l.node_wall_sum_s / fits, "s");
  metrics->Add("core.branch_parallelism",
               Ratio(l.node_wall_sum_s, l.fit_run_s), "ratio");
  metrics->Add("solvers.train_s", l.solver_train_s / fits, "s");
  metrics->Add("solvers.profile_s", l.solver_profile_s / fits, "s");
  metrics->Add("linalg.cholesky_gflops", probe.cholesky_gflops, "GFLOP/s");
  metrics->Add("linalg.gemm_gflops", probe.gemm_gflops, "GFLOP/s");
  metrics->Add("linalg.gram_gflops", probe.gram_gflops, "GFLOP/s");
  metrics->Add("linalg.cholesky_s", probe.cholesky_s, "s");
  metrics->Add("ops.train_s", l.ops_train_s / fits, "s");
  metrics->Add("ops.apply_s", l.ops_apply_s / applies, "s");
  metrics->Add("ops.kmeans_s", l.kmeans_s * per_round, "s");
  metrics->Add("ops.random_features_s", l.random_features_s * per_round, "s");
  metrics->Add("ops.text_featurize_s", l.text_featurize_s * per_round, "s");
  metrics->Add("ops.fused_regions",
               env->MetricValue("exec.fused.regions") * per_round, "count");
  metrics->Add(
      "ops.fused_bytes_avoided",
      env->MetricValue("exec.fused.intermediate_bytes_avoided") * per_round,
      "bytes");
  metrics->Add("common.pool_tasks", l.pool_tasks * per_round, "count");
  metrics->Add("common.pool_busy_s", l.pool_busy_s * per_round, "s");
  metrics->Add(
      "common.pool_utilization",
      Ratio(l.pool_busy_s, traced_s * static_cast<double>(env->nproc())),
      "ratio");
  metrics->Add("serve.run_s", l.serve_run_s / serves, "s");
  metrics->Add("serve.kernel_s", l.serve_kernel_s / serves, "s");
  metrics->Add("serve.loop_s", (l.serve_run_s - l.serve_kernel_s) / serves,
               "s");
  metrics->Add("serve.batches", l.serve_batches / serves, "count");
  metrics->Add("serve.mean_batch",
               Ratio(l.serve_batched_records, l.serve_batches), "count");
  metrics->Add("serve.rejected", l.serve_rejected / serves, "count");
  metrics->Add("serve.queue_high_water", l.serve_queue_high_water, "count");
  metrics->Add("obs.spans", l.spans * per_round, "count");
  metrics->Add("obs.trace_overhead", Ratio(traced_s - baseline_s, baseline_s),
               "ratio");
  metrics->Add("cache.reused_nodes", l.reused_nodes * per_round, "count");
  metrics->Add("cache.hit_ratio", Ratio(accepted, accepted + rejected),
               "ratio");
  metrics->Add("cache.hits_memory", l.hits_memory * per_round, "count");
  metrics->Add("cache.hits_disk", l.hits_disk * per_round, "count");
  metrics->Add("cache.puts", env->MetricValue("catalog.puts") * per_round,
               "count");
  metrics->Add("cache.evictions", l.cache_evictions * per_round, "count");

  // How much of the traced fit wall each layer accounts for.
  const double fit_wall = traced_fit_s / fits;
  *detail +=
      ",\"rounds\":" + std::to_string(rounds) +
      ",\"serve_runs\":" + std::to_string(l.serve_runs) +
      ",\"baseline_wall_s\":" + Num(baseline_s) +
      ",\"traced_wall_s\":" + Num(traced_s) +
      ",\"traced_fit_s\":" + Num(fit_wall) +
      ",\"fit_share_solvers_plus_profile\":" +
      Num(Ratio((l.solver_train_s + l.profile_s) / fits, fit_wall)) +
      ",\"fit_share_ops\":" +
      Num(Ratio((l.ops_train_s + l.profile_s - l.solver_profile_s) / fits,
                fit_wall));
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fit-text|fit-image|serve-mixed|"
                 "tune-grid --seed N --seconds S --trace 0|1 --scratch "
                 "DIR\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.scratch, ec);

  Env env(options);
  // Set-up runs several times; each one regenerates every input (and
  // serve-mixed refits its tenants), and the last one's state is used.
  // Traced runs trace the set-up fits too: they are serve-mixed's only fits.
  env.set_mode(options.trace ? Mode::kTraced : Mode::kTimed);
  std::vector<double> setup_walls, gen_walls;
  for (int i = 0; i < kSetups; ++i) {
    const Timer wall;
    gen_walls.push_back(workload->Setup(&env));
    setup_walls.push_back(wall.ElapsedSeconds());
    malloc_trim(0);  // drop the previous set-up's inputs from the RSS
  }

  MetricList metrics;
  std::string detail =
      "{\"detail\":{\"workload\":" + JsonString(options.workload) +
      ",\"seed\":" + std::to_string(options.seed) +
      ",\"trace\":" + (options.trace ? "1" : "0") +
      ",\"build\":{\"type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
      ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
      ",\"flags\":" + JsonString(PERFBENCH_CXX_FLAGS) +
      "},\"nproc\":" + std::to_string(env.nproc()) +
      ",\"threads\":{\"bench_pool\":" +
      std::to_string(env.pool().num_threads()) +
      ",\"server_pool\":" + std::to_string(kServerThreads) + "}" +
      ",\"setups\":" + std::to_string(kSetups);
  if (options.trace) {
    TracedRun(&env, workload.get(), Median(gen_walls), &metrics, &detail);
  } else {
    TimedRun(&env, workload.get(), setup_walls, &metrics, &detail);
  }
  detail += ",\"failures\":[";
  for (size_t i = 0; i < env.failures().size(); ++i) {
    detail += (i == 0 ? "" : ",") + JsonString(env.failures()[i]);
  }
  detail += "]}}";

  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              env.failed() == 0 ? "true" : "false", env.attempted(),
              env.failed(), metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
