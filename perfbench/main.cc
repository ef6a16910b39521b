/// \file main.cc
/// The repository benchmark program (see README.md). One invocation runs one
/// workload for one seed:
///
///   geqo_perfbench --workload batch|serve|reuse --seed N --seconds S
///                  --trace 0|1 --workdir DIR
///
/// It sets up several times (train from a fixed seed, generate the seeded
/// request sequence, preload) and reports the median set-up time, then runs
/// one timed pass. With --trace 1 it runs a second, traced pass on a fresh
/// preload and reports the per-layer metrics instead of the end-to-end
/// ones. The last line of stdout is the JSON result; the exit code is
/// non-zero when a correctness gate fails.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "tensor/kernels/kernel_table.h"

namespace geqo::perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 3;
/// All-core spin before each timed pass (see WarmCores).
constexpr double kWarmSeconds = 1.5;

/// Every per-layer metric with its unit, in BENCHMARK.json order. A traced
/// run reports each one; a layer the workload does not drive reports 0.
constexpr std::pair<const char*, const char*> kPerLayerMetrics[] = {
    {"pipeline.encode_ms", "ms"},
    {"pipeline.sf_ms", "ms"},
    {"pipeline.vmf_ms", "ms"},
    {"pipeline.emf_ms", "ms"},
    {"pipeline.verify_ms", "ms"},
    {"pipeline.vmf_pairs_out", "count"},
    {"pipeline.emf_pairs_out", "count"},
    {"pipeline.verify_yield", "ratio"},
    {"filters.emf_us_per_pair", "us"},
    {"tensor.kernel_dispatches", "count"},
    {"verify.solver_calls", "count"},
    {"common.pool_task_p95_ms", "ms"},
    {"serve.probe.prepare_ms", "ms"},
    {"serve.probe.sf_ms", "ms"},
    {"serve.probe.vmf_ms", "ms"},
    {"serve.probe.emf_ms", "ms"},
    {"serve.probe.classify_ms", "ms"},
    {"filters.emf_pairs_per_probe", "count"},
    {"ann.hnsw_distances_per_probe", "count"},
    {"serve.ingest.prepare_ms", "ms"},
    {"serve.ingest.sf_ms", "ms"},
    {"serve.ingest.vmf_ms", "ms"},
    {"serve.ingest.emf_ms", "ms"},
    {"serve.ingest.classify_ms", "ms"},
    {"serve.ingest.commit_ms", "ms"},
    {"serve.ingest_p50_ms", "ms"},
    {"serve.ingest_p95_ms", "ms"},
    {"serve.verify_enqueued", "count"},
    {"serve.verify_completed", "count"},
    {"serve.verify_backlog_end", "count"},
    {"serve.verify_lag_p95_ms", "ms"},
    {"serve.memo_hit_rate", "ratio"},
    {"serve.gen_late_p95_ms", "ms"},
    {"persist.wal_records", "count"},
    {"persist.bytes_per_entry", "B"},
    {"persist.compactions", "count"},
    {"persist.compaction_s", "s"},
    {"persist.replayed_records", "count"},
    {"persist.recovery_s", "s"},
    {"plan.exact_tier_hit_rate", "ratio"},
    {"plan.canonical_hash_us", "us"},
    {"serve.probe_add_ms", "ms"},
    {"exec.cache_hit_rate", "ratio"},
    {"exec.cache_admissions", "count"},
    {"exec.cache_evictions", "count"},
    {"exec.execute_p50_ms", "ms"},
    {"exec.execute_p95_ms", "ms"},
    {"exec.rows_scanned_per_exec", "count"},
    {"ml.train_s", "s"},
    {"setup.gen_s", "s"},
    {"setup.preload_s", "s"},
    {"trace.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void Refuse(const std::string& why) {
  std::fprintf(stderr, "geqo_perfbench: %s\n", why.c_str());
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      Refuse("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) Refuse("flags take one value each");
  if (config.seconds <= 0.0) Refuse("--seconds must be positive");
  if (config.workdir.empty()) Refuse("--workdir is required");
  return config;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "batch") return MakeBatchWorkload();
  if (name == "serve") return MakeServeWorkload();
  if (name == "reuse") return MakeReuseWorkload();
  Refuse("unknown workload '" + name + "' (batch, serve, reuse)");
}

/// Measured, never modeled: the verifier stall that stands in for SPES must
/// be off. (No code path here applies the Fig-12 device model.)
void CheckMeasuredOnly(const Deployment& deployment) {
  const double stall = deployment.system->pipeline()
                           .options()
                           .verifier.modeled_invocation_stall_seconds;
  if (stall != 0.0) {
    Refuse("modeled verifier stall is " + std::to_string(stall) +
           " s; the benchmark measures only real work");
  }
}

/// Keeps every core busy for \p seconds before a timed pass. On a virtual
/// machine whose cores sat idle through single-threaded set-up, the first
/// second of parallel work otherwise runs up to 2.5x slower while the host
/// brings the idle virtual CPUs back; this spin absorbs that ramp.
void WarmCores(double seconds) {
  const size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  const double until = NowSeconds() + seconds;
  std::vector<std::thread> spinners;
  for (size_t i = 0; i < cores; ++i) {
    spinners.emplace_back([until] {
      while (NowSeconds() < until) {
      }
    });
  }
  for (std::thread& spinner : spinners) spinner.join();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Main(int argc, char** argv) {
  const double process_start = NowSeconds();
  const RunConfig config = ParseArgs(argc, argv);

  const char* threads_env = std::getenv("GEQO_THREADS");
  if (threads_env == nullptr) Refuse("GEQO_THREADS must be pinned");
  if (obs::GlobalTraceLevel() != obs::TraceLevel::kOff) {
    Refuse("GEQO_TRACE must be off; the traced pass enables it itself");
  }
  std::filesystem::create_directories(config.workdir);

  Report report;
  report.Environment("workload", config.workload);
  report.Environment("seed", std::to_string(config.seed));
  report.Environment("seconds", std::to_string(config.seconds));
  report.Environment("trace", config.trace ? "1" : "0");
  report.Environment("isa", kernels::ActiveIsaName());
  report.Environment("quant", kernels::QuantModeName());
  report.Environment("geqo_threads",
                     std::to_string(ThreadPool::GlobalThreads()));
  report.Environment("build_type", GEQO_PERFBENCH_BUILD_TYPE);
  report.Environment("verifier_stall_s", "0 (measured only)");
  report.Environment("device_model", "none (CPU, measured)");

  std::unique_ptr<Workload> workload = MakeWorkload(config.workload);
  Samples setup_s, train_s, gen_s, preload_s;
  Deployment deployment;
  for (size_t k = 0; k < kSetups; ++k) {
    const double start = k == 0 ? process_start : NowSeconds();
    if (k > 0) {
      workload->Reset();
      deployment = Deployment();
    }
    const double t0 = NowSeconds();
    deployment = TrainDeployment();
    CheckMeasuredOnly(deployment);
    const double t1 = NowSeconds();
    workload->Generate(deployment, config.seed);
    const double t2 = NowSeconds();
    workload->Preload(deployment, config);
    const double t3 = NowSeconds();
    train_s.Add(t1 - t0);
    gen_s.Add(t2 - t1);
    preload_s.Add(t3 - t2);
    setup_s.Add(t3 - start);
  }

  WarmCores(kWarmSeconds);
  const PassResult untraced =
      workload->Run(deployment, config, /*tracer=*/nullptr, &report);
  if (config.trace) {
    workload->Reset();
    workload->Preload(deployment, config);
    WarmCores(kWarmSeconds);
    obs::SetTraceLevel(obs::TraceLevel::kMetrics);
    obs::MetricsRegistry::Global().Reset();
    Tracer tracer;
    const PassResult traced = workload->Run(deployment, config, &tracer,
                                            &report);
    obs::SetTraceLevel(obs::TraceLevel::kOff);
    report.Layer("ml.train_s", train_s.Median(), "s", train_s.size());
    report.Layer("setup.gen_s", gen_s.Median(), "s", gen_s.size());
    report.Layer("setup.preload_s", preload_s.Median(), "s",
                 preload_s.size());
    report.Layer("trace.overhead_pct",
                 untraced.latency_p50_ms > 0.0
                     ? 100.0 * (traced.latency_p50_ms /
                                    untraced.latency_p50_ms -
                                1.0)
                     : 0.0,
                 "%", 2);
    for (const auto& [name, unit] : kPerLayerMetrics) {
      if (!report.HasLayer(name)) report.Layer(name, 0.0, unit, 0);
    }
    GEQO_CHECK(report.LayerCount() == std::size(kPerLayerMetrics))
        << "a workload reports a per-layer metric missing from the list";
    const std::string spans_path = config.workdir + "/spans.jsonl";
    if (tracer.WriteJsonLines(spans_path)) {
      report.Environment("spans", spans_path + " (" +
                                      std::to_string(tracer.SpanCount()) +
                                      " spans)");
    }
  } else {
    report.EndToEnd("setup_s", setup_s.Median(), "s", setup_s.size());
    report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);
  }
  workload->Reset();
  report.Print(config.trace);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace geqo::perfbench

int main(int argc, char** argv) { return geqo::perfbench::Main(argc, argv); }
