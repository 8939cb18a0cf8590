// The layer-waterfall benchmark: serves one workload through the
// spinal, sim, runtime and mux layers, checks every output, and prints
// its metrics (end-to-end untraced, per-layer traced) as a table and, on
// the last line, one JSON object.
//
//   waterfall --workload NAME --seed N --seconds S --trace 0|1
//   waterfall --list     (workload and metric names, one per line)
//
// perfbench/run.py builds this program and is the one command to run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "backend/backend.h"
#include "common.h"

namespace perfbench {

namespace {

double proc_status_mib(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(f, line))
    if (line.compare(0, n, field) == 0)
      return std::strtod(line.c_str() + n, nullptr) / 1024.0;  // kB
  return 0.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace

double rss_mib() { return proc_status_mib("VmRSS:"); }
double peak_rss_mib() { return proc_status_mib("VmHWM:"); }

void emit(const EndToEnd& e, Result& out) {
  out.add_median("goodput_bps", e.goodput_bps, "bit/s");
  out.add("rate_bits_per_symbol", e.rate_bits_per_symbol, "bit/symbol");
  out.add("delivered_fraction", e.delivered_fraction, "ratio");
  out.add_median("setup_s", e.setup_s, "s");
  out.add("peak_rss_mib", e.peak_rss_mib, "MiB");
  // Medians over the timed rounds of each round's percentile; the sample
  // count shown is the latencies behind them.
  for (const auto& [name, rounds] : {std::pair{"ack_latency_p50_ms", &e.round_p50_ms},
                                     std::pair{"ack_latency_p99_ms", &e.round_p99_ms}})
    out.metrics.push_back(
        {name, rounds->median(), "ms", rounds->spread(), e.ack_samples});
}

void emit(const Layers& l, Result& out) {
  out.add("spinal.decode_calls", l.decode_calls_all, "1/round");
  out.add("spinal.decode_us_p50", l.decode_us_p50_all, "us");
  out.add("spinal.decode_us_p99", l.decode_us_p99_all, "us");
  for (int f = 0; f < kFamilies; ++f) {
    const std::string fam = kFamilyName[f];
    out.add("spinal.decode_calls." + fam, l.decode_calls[f], "1/round");
    out.add("spinal.decode_us_p50." + fam, l.decode_us_p50[f], "us");
    out.add("spinal.decode_us_p99." + fam, l.decode_us_p99[f], "us");
  }
  out.add("spinal.decode_share", l.decode_share, "ratio");
  out.add_median("spinal.replay_bps", l.replay_bps, "bit/s");
  out.add("sim.next_chunk_ns_per_symbol", l.next_chunk_ns_per_symbol, "ns");
  out.add("sim.receive_chunk_ns_per_symbol", l.receive_chunk_ns_per_symbol, "ns");
  out.add("sim.feed_share", l.feed_share, "ratio");
  out.add_median("sim.sequential_bps", l.sequential_bps, "bit/s");
  out.add("sim.overhead_ratio",
          ratio(l.sequential_bps.median(), l.replay_bps.median()), "ratio");
  out.add("sim.attempts_per_session", l.attempts_per_session, "count");
  out.add("sim.useful_attempt_ratio", l.useful_attempt_ratio, "ratio");
  out.add("runtime.overhead_ratio",
          ratio(l.goodput_untraced_bps.median(), l.sequential_bps.median()), "ratio");
  out.add_median("runtime.drain_ms", l.drain_ms, "ms");
  out.add("runtime.jobs", l.jobs, "1/round");
  out.add("runtime.claims", l.claims, "1/round");
  out.add("runtime.jobs_per_claim", ratio(l.jobs, l.claims), "count");
  out.add("runtime.queue_wait_us_p50", l.queue_wait_us_p50, "us");
  out.add("runtime.queue_wait_us_p99", l.queue_wait_us_p99, "us");
  out.add("runtime.batch_assembly_us_p50", l.batch_assembly_us_p50, "us");
  out.add("runtime.batch_assembly_us_p99", l.batch_assembly_us_p99, "us");
  out.add("runtime.decode_service_us_p50", l.decode_service_us_p50, "us");
  out.add("runtime.submit_us_p50", l.submit_us.quantile(0.5), "us");
  out.add("runtime.submit_us_p99", l.submit_us.quantile(0.99), "us");
  out.add("runtime.rss_growth_mib_per_round", l.rss_growth_mib_per_round, "MiB");
  out.add("runtime.steals", l.steals, "1/round");
  out.add("runtime.reduced_effort_attempts", l.reduced_effort_attempts, "1/round");
  out.add("runtime.full_effort_retries", l.full_effort_retries, "1/round");
  out.add("runtime.unpinned_decodes", l.unpinned_decodes, "1/round");
  out.add("mux.ingest_ns_per_symbol", l.mux_ingest_ns_per_symbol, "ns");
  out.add("mux.pause_point_us_p50", l.mux_pause_point_us.quantile(0.5), "us");
  out.add("mux.pause_point_us_p99", l.mux_pause_point_us.quantile(0.99), "us");
  out.add_median("mux.wait_idle_ms_p50", l.mux_wait_idle_ms, "ms");
  out.add_median("mux.poll_acks_us_p50", l.mux_poll_acks_us, "us");
  out.add("mux.frames", l.mux_frames, "1/round");
  out.add("mux.attempts_per_block", l.mux_attempts_per_block, "count");
  out.add("mux.useful_attempt_ratio", l.mux_useful_attempt_ratio, "ratio");
  out.add("mux.stale_symbols", l.mux_stale_symbols, "1/round");
  out.add("bench.reference_redraws", l.reference_redraws, "count");
  out.add("bench.trace_overhead",
          ratio(l.goodput_traced_bps.median(), l.goodput_untraced_bps.median()),
          "ratio");

  // The waterfall, bottom to top: each layer's rate and its ratio over
  // the layer below.
  const double replay = l.replay_bps.median(), seq = l.sequential_bps.median(),
               svc = l.goodput_untraced_bps.median();
  char line[256];
  std::snprintf(line, sizeof line,
                "waterfall: spinal.replay_bps %.0f -> sim.sequential_bps %.0f "
                "(x%.3f) -> goodput_bps %.0f (x%.3f)",
                replay, seq, ratio(seq, replay), svc, ratio(svc, seq));
  out.notes.emplace_back(line);
}

}  // namespace perfbench

namespace {

constexpr const char* kWorkloads[] = {"fleet_small_b", "fleet_reference", "link_mux"};

// Environment knobs that would silently change the workloads.
constexpr const char* kForbiddenEnv[] = {
    "SPINAL_COST_PRECISION", "SPINAL_BACKEND", "SPINAL_BENCH_TRIALS",
    "SPINAL_BENCH_FULL", "SPINAL_BENCH_THREADS"};

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// JSON number: finite values with all their digits, 0 otherwise.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print(const perfbench::Result& r) {
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::printf("# %-40s %16s %-10s %8s %8s\n", "metric", "value", "unit", "spread",
              "samples");
  for (const perfbench::Metric& m : r.metrics)
    std::printf("# %-40s %16.6g %-10s %8.4f %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.spread, m.samples);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                r.metrics[i].name.c_str(), num(r.metrics[i].value).c_str(),
                r.metrics[i].unit.c_str());
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "       %s --list\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig cfg;
  bool have_seed = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--list") {
      perfbench::Result e2e, layers;
      perfbench::emit(perfbench::EndToEnd{}, e2e);
      perfbench::emit(perfbench::Layers{}, layers);
      for (const char* w : kWorkloads) std::printf("workload %s\n", w);
      for (const auto& m : e2e.metrics)
        std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
      for (const auto& m : layers.metrics)
        std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
      return 0;
    }
    if (a + 1 >= argc) return usage(argv[0]);
    const char* val = argv[++a];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(val, "1") == 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (workload.empty() || !have_seed || !(cfg.seconds > 0)) return usage(argv[0]);
  for (const char* var : kForbiddenEnv)
    if (std::getenv(var)) {
      std::fprintf(stderr, "refusing to run: %s is set and would change the workload\n",
                   var);
      return 2;
    }

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("# env backend=%s cpu=\"%s\" nproc=%u\n",
              spinal::backend::active().name, cpu_model().c_str(),
              std::thread::hardware_concurrency());
  std::fflush(stdout);

  perfbench::Result r;
  if (workload == "link_mux")
    r = perfbench::run_link(cfg);
  else if (workload == "fleet_small_b" || workload == "fleet_reference")
    r = perfbench::run_fleet(workload, cfg);
  else
    return usage(argv[0]);
  print(r);
  return r.correct ? 0 : 1;
}
