// Decode-server load generator: drives N concurrent rateless sessions
// over mixed AWGN / Rayleigh / BSC channels through the decode runtime
// (src/runtime/) — the radio head of §6 serving many simultaneous code
// blocks, with the §8.1 engine's attempt policy per session and the
// Fig 8-6 beam-width knob as the overload valve.
//
// Traffic cycles through seven link profiles (three AWGN operating
// points, Rayleigh with and without CSI, two BSC crossovers) and
// heterogeneous CodeParams, so the workers' CodeParams-keyed workspace
// pools actually multiplex. Admission control back-pressures the
// generator; telemetry reports aggregate throughput, decode-latency
// p50/p95/p99, the stage decomposition (queue-wait / batch-assembly /
// decode-service, overall and per codec), the adaptive-beam counters
// and the sharded-queue counters.
//
// Run: ./build/examples/example_decode_server [sessions] [workers]
//          [--deterministic] [--shards N] [--trace-out FILE]
//          [--metrics-out FILE] [--metrics-interval MS]
//   --shards N       job-queue shard count (0 = one per worker;
//                    deterministic mode always collapses to one)
//   --trace-out F    enable runtime tracing; write Perfetto /
//                    chrome://tracing JSON to F at exit
//   --metrics-out F  write the metrics registry as JSON to F (and the
//                    Prometheus text exposition to F.prom)
//   --metrics-interval MS  sample the registry every MS ms into time
//                    slices (written into the --metrics-out JSON)
//
// SIGINT stops the submit loop, drains what's in flight, and still
// prints the telemetry summary and writes the trace/metrics files — an
// interrupted run loses traffic, not observability.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "runtime/decode_service.h"
#include "sim/bsc_session.h"
#include "sim/spinal_session.h"
#include "util/metrics.h"
#include "util/prng.h"

using namespace spinal;
using namespace spinal::runtime;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void on_sigint(int) {
  g_interrupted = 1;
  // A second ^C gets the default disposition: kill the process rather
  // than wait for the drain.
  std::signal(SIGINT, SIG_DFL);
}

struct Profile {
  const char* name;
  sim::ChannelKind kind;
  double snr_db;
  double crossover;
  int coherence;
};

constexpr Profile kProfiles[] = {
    {"awgn@10dB", sim::ChannelKind::kAwgn, 10.0, 0, 1},
    {"awgn@15dB", sim::ChannelKind::kAwgn, 15.0, 0, 1},
    {"awgn@20dB", sim::ChannelKind::kAwgn, 20.0, 0, 1},
    {"rayleigh-csi@18dB", sim::ChannelKind::kRayleighCsi, 18.0, 0, 10},
    {"rayleigh-nocsi@22dB", sim::ChannelKind::kRayleighNoCsi, 22.0, 0, 100},
    {"bsc@0.03", sim::ChannelKind::kBsc, 0, 0.03, 1},
    {"bsc@0.05", sim::ChannelKind::kBsc, 0, 0.05, 1},
};
constexpr int kProfileCount = static_cast<int>(std::size(kProfiles));

SessionSpec make_spec(int i) {
  const Profile& prof = kProfiles[i % kProfileCount];
  util::Xoshiro256 prng(0xD5000000u + static_cast<std::uint64_t>(i));
  CodeParams p;
  p.n = (i % 2) ? 96 : 192;          // heterogeneous block sizes...
  p.B = (i % 3) ? 64 : 256;          // ...and beam widths
  if (prof.kind == sim::ChannelKind::kBsc) p.c = 1;
  SessionSpec spec;
  spec.make_session = [kind = prof.kind, p]() -> std::unique_ptr<sim::RatelessSession> {
    if (kind == sim::ChannelKind::kBsc) return std::make_unique<sim::BscSession>(p);
    return std::make_unique<sim::SpinalSession>(p);
  };
  spec.channel.kind = prof.kind;
  spec.channel.snr_db = prof.snr_db;
  spec.channel.crossover = prof.crossover;
  spec.channel.coherence = prof.coherence;
  spec.channel.seed = 0xD5C00000u + static_cast<std::uint64_t>(i);
  spec.message = prng.random_bits(p.n);
  return spec;
}

void print_summary(const DecodeService& service,
                   const std::vector<SessionReport>& reports, double wall) {
  // Per-profile outcome table (reports may cover fewer sessions than
  // requested when the run was interrupted).
  std::printf("\n%-22s %8s %8s %12s %10s\n", "link", "sessions", "decoded",
              "avg symbols", "avg att.");
  const int n = static_cast<int>(reports.size());
  for (int prof = 0; prof < kProfileCount; ++prof) {
    int count = 0, ok = 0;
    long symbols = 0;
    int attempts = 0;
    for (int i = prof; i < n; i += kProfileCount) {
      const SessionReport& r = reports[static_cast<std::size_t>(i)];
      ++count;
      ok += r.run.success;
      symbols += r.run.symbols;
      attempts += r.run.attempts;
    }
    if (count == 0) continue;
    std::printf("%-22s %8d %8d %12.1f %10.1f\n", kProfiles[prof].name, count, ok,
                static_cast<double>(symbols) / count,
                static_cast<double>(attempts) / count);
  }

  long bits = 0;
  for (const SessionReport& r : reports)
    if (r.run.success) bits += r.message_bits;
  const TelemetrySnapshot snap = service.telemetry();
  std::printf("\naggregate: %ld bits decoded in %.2f s = %.0f bits/s "
              "(%llu attempts, %llu symbols)\n",
              bits, wall, wall > 0 ? static_cast<double>(bits) / wall : 0.0,
              static_cast<unsigned long long>(snap.counters.decode_attempts),
              static_cast<unsigned long long>(snap.counters.symbols_fed));
  std::printf("decode latency: p50 %.0f us, p95 %.0f us, p99 %.0f us "
              "(max %.0f us over %llu attempts)\n",
              snap.decode_latency_us.quantile(0.50),
              snap.decode_latency_us.quantile(0.95),
              snap.decode_latency_us.quantile(0.99), snap.decode_latency_us.max(),
              static_cast<unsigned long long>(snap.decode_latency_us.count()));
  const auto stage = [](const char* name, const util::LatencyHistogram& h) {
    std::printf("  stage %-16s p50 %8.1f us  p95 %8.1f us  p99 %8.1f us  "
                "(%llu records)\n",
                name, h.quantile(0.50), h.quantile(0.95), h.quantile(0.99),
                static_cast<unsigned long long>(h.count()));
  };
  std::printf("stage decomposition:\n");
  stage("queue-wait", snap.stages.queue_wait_us);
  stage("batch-assembly", snap.stages.batch_assembly_us);
  stage("decode-service", snap.stages.decode_service_us);
  for (const TagTelemetry& t : snap.tags)
    std::printf("  tag %-32s %8llu jobs %8llu attempts  service p95 %8.1f us\n",
                t.label.c_str(), static_cast<unsigned long long>(t.counters.jobs),
                static_cast<unsigned long long>(t.counters.decode_attempts),
                t.decode_latency_us.quantile(0.95));
  std::printf("adaptive effort: %llu reduced attempts, %llu full-effort idle "
              "retries, %llu unpinned decodes, peak in-flight %d\n",
              static_cast<unsigned long long>(snap.counters.reduced_effort_attempts),
              static_cast<unsigned long long>(snap.counters.full_effort_retries),
              static_cast<unsigned long long>(snap.counters.unpinned_decodes),
              service.peak_in_flight());
  std::printf("job queue: %zu shard%s (residual depth", snap.queue.shard_depths.size(),
              snap.queue.shard_depths.size() == 1 ? "" : "s");
  for (std::size_t d : snap.queue.shard_depths) std::printf(" %zu", d);
  std::printf("), %llu steals / %llu jobs stolen, %llu cross-shard submits\n",
              static_cast<unsigned long long>(snap.queue.steals),
              static_cast<unsigned long long>(snap.queue.stolen_jobs),
              static_cast<unsigned long long>(snap.queue.cross_shard_submits));

  const std::size_t failed = static_cast<std::size_t>(
      snap.counters.sessions_failed);
  if (failed > 0)
    std::printf("note: %zu sessions hit their give-up bound (expected at the "
                "harshest profiles under heavy load)\n", failed);
}

}  // namespace

int main(int argc, char** argv) {
  int sessions = 210;
  int workers = 0;  // 0 = all cores
  bool deterministic = false;
  int shards = 0;  // 0 = one per worker
  std::string trace_out, metrics_out;
  int metrics_interval_ms = 0;
  int pos = 0;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--deterministic") == 0) {
      deterministic = true;
    } else if (std::strcmp(argv[a], "--shards") == 0 && a + 1 < argc) {
      shards = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--trace-out") == 0 && a + 1 < argc) {
      trace_out = argv[++a];
    } else if (std::strcmp(argv[a], "--metrics-out") == 0 && a + 1 < argc) {
      metrics_out = argv[++a];
    } else if (std::strcmp(argv[a], "--metrics-interval") == 0 && a + 1 < argc) {
      metrics_interval_ms = std::atoi(argv[++a]);
    } else if (pos == 0) {
      sessions = std::atoi(argv[a]);
      ++pos;
    } else {
      workers = std::atoi(argv[a]);
      ++pos;
    }
  }

  RuntimeOptions opt;
  opt.workers = workers;
  opt.deterministic = deterministic;
  opt.shards = shards;
  opt.trace.enabled = !trace_out.empty();
  DecodeService service(opt);
  if (!trace_out.empty() && service.tracer() == nullptr)
    std::fprintf(stderr, "warning: tracing requested but compiled out "
                         "(SPINAL_RUNTIME_TRACE=0); no trace will be written\n");
  std::printf("decode server: %d sessions over %d mixed links, %d workers, "
              "%s mode, admission cap %d%s\n",
              sessions, kProfileCount, service.workers(),
              deterministic ? "deterministic" : "adaptive-B",
              service.max_in_flight(),
              service.tracer() ? ", tracing on" : "");

  util::metrics::Registry registry;
  std::unique_ptr<util::metrics::PeriodicSampler> sampler;
  if (metrics_interval_ms > 0)
    sampler = std::make_unique<util::metrics::PeriodicSampler>(
        registry, std::chrono::milliseconds(metrics_interval_ms),
        [&] { export_metrics(service.telemetry(), registry); });

  std::signal(SIGINT, on_sigint);
  const auto t0 = std::chrono::steady_clock::now();
  int submitted = 0;
  for (; submitted < sessions && !g_interrupted; ++submitted)
    service.submit(make_spec(submitted));  // backpressured
  const auto reports = service.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::signal(SIGINT, SIG_DFL);
  if (g_interrupted)
    std::printf("\ninterrupted: %d of %d sessions submitted; draining what "
                "ran and reporting\n", submitted, sessions);

  if (sampler) sampler->stop();  // final slice before the export below
  print_summary(service, reports, wall);

  if (service.tracer() && !trace_out.empty()) {
    std::ofstream f(trace_out);
    if (f) {
      service.tracer()->export_json(f);
      std::printf("trace: wrote %s (%llu events dropped)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(service.tracer()->dropped()));
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
    }
  }
  if (!metrics_out.empty()) {
    export_metrics(service.telemetry(), registry);  // final values, post-drain
    std::ofstream f(metrics_out);
    if (f) {
      f << "{\"metrics\": " << registry.json() << ", \"slices\": "
        << (sampler ? sampler->slices_json() : "[]") << "}\n";
      std::printf("metrics: wrote %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
    }
    std::ofstream prom(metrics_out + ".prom");
    if (prom) prom << registry.prometheus_text();
  }
  return 0;
}
