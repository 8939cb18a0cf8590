// Aggregate decode throughput of the multi-session runtime: decoded
// message bits per second vs worker count and session count, the
// scale-out companion to bench_micro_decoder's single-thread numbers.
//
// The workload is a fixed mixed-traffic batch (two AWGN operating
// points plus a BSC link, heterogeneous CodeParams) submitted to a
// deterministic-mode DecodeService — deterministic so every worker
// count decodes the *same* total work and the speedup column measures
// scheduling, not beam adaptation; the run cross-checks that per-session
// results are bit-identical across worker counts and fails loudly if
// not (the guarantee the experiment sweeps rely on).
//
// Run: ./build/bench/bench_runtime_throughput [--json FILE] [--min-scaling R]
//   --json FILE        also emit Google-Benchmark-compatible JSON
//                      (items_per_second = decoded bits/s) for
//                      tools/perf_snapshot.py / perf_guard.py
//   --min-scaling R    exit non-zero unless bits/s at the largest
//                      worker count is >= R x the 1-worker rate on the
//                      largest session batch. The threshold relaxes
//                      proportionally when the host has fewer cores
//                      than workers, and the check is skipped (with a
//                      note) on a single-core host where no speedup is
//                      physically possible.
// Session counts scale with SPINAL_BENCH_TRIALS / SPINAL_BENCH_FULL.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "runtime/decode_service.h"
#include "sim/bsc_session.h"
#include "sim/spinal_session.h"
#include "util/prng.h"

using namespace spinal;
using namespace spinal::runtime;

namespace {

SessionSpec make_spec(int i) {
  util::Xoshiro256 prng(0xBE7C0000u + static_cast<std::uint64_t>(i));
  SessionSpec spec;
  spec.channel.seed = 0xBE7CC000u + static_cast<std::uint64_t>(i);
  switch (i % 3) {
    case 0: {
      CodeParams p;
      p.n = 192;
      p.B = 256;
      spec.make_session = [p] { return std::make_unique<sim::SpinalSession>(p); };
      spec.channel.snr_db = 12.0;
      spec.message = prng.random_bits(p.n);
      break;
    }
    case 1: {
      CodeParams p;
      p.n = 128;
      p.B = 128;
      spec.make_session = [p] { return std::make_unique<sim::SpinalSession>(p); };
      spec.channel.snr_db = 8.0;
      spec.message = prng.random_bits(p.n);
      break;
    }
    default: {
      CodeParams p;
      p.n = 128;
      p.c = 1;
      p.B = 128;
      spec.make_session = [p] { return std::make_unique<sim::BscSession>(p); };
      spec.channel.kind = sim::ChannelKind::kBsc;
      spec.channel.crossover = 0.04;
      spec.message = prng.random_bits(p.n);
      break;
    }
  }
  return spec;
}

// Many-small-sessions fleet: tiny BSC links (B=2, c=1) whose bit-metric
// decode is cheap enough that per-job runtime overhead — the queue hop,
// clock reads, workspace lookup, slot accounting — is a large fraction
// of the work. Since the 10k-session scale-out the fleet is mixed-key:
// 32 CodeParams variants cycle per session, so 32 distinct batch tags
// interleave in arrival order and a window-bounded single-queue scan
// finds only a couple of same-tag neighbours per claim. A single queue
// has to scan past strangers (and erase mid-deque) to assemble each
// same-tag batch; the sharded queue colocated every tag at submit time,
// so claims are contiguous head runs. That routing difference — not
// decode math — is what the batch:on vs queue:sharded comparison
// isolates.
SessionSpec small_spec(int i) {
  util::Xoshiro256 prng(0xBA7C0000u + static_cast<std::uint64_t>(i));
  CodeParams p;
  p.n = 4 + 4 * (i % 2);       // n in {4, 8}: every block stays tiny
  p.max_passes = 32 + (i % 16);  // x16 give-up bounds (never hit at this
                                 // crossover): 32 distinct workspace keys
                                 // of identical per-job cost
  p.c = 1;
  p.B = 2;
  SessionSpec spec;
  spec.make_session = [p] { return std::make_unique<sim::BscSession>(p); };
  spec.channel.kind = sim::ChannelKind::kBsc;
  spec.channel.crossover = 0.02;
  spec.channel.seed = 0xBA7CC000u + static_cast<std::uint64_t>(i);
  spec.message = prng.random_bits(p.n);
  return spec;
}

struct Point {
  int workers;
  int sessions;
  long decoded_bits;
  double wall_s;
  double bits_per_s;
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  double min_scaling = 0.0;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    } else if (std::strcmp(argv[a], "--min-scaling") == 0 && a + 1 < argc) {
      min_scaling = std::atof(argv[++a]);
    } else {
      std::fprintf(stderr, "usage: %s [--json FILE] [--min-scaling R]\n",
                   argv[0]);
      return 2;
    }
  }

  benchutil::banner("runtime aggregate decode throughput",
                    "link layer at scale (SS6, SS8.1); scale-out of the "
                    "kernel speedups");
  std::vector<int> session_counts = {benchutil::trials(12),
                                     benchutil::trials(48)};
  // SPINAL_BENCH_TRIALS overrides both bases to the same value; keep one.
  if (session_counts[0] == session_counts[1]) session_counts.pop_back();
  const std::vector<int> worker_counts = {1, 2, 4, 8};
  std::printf("workers,sessions,decoded_bits,wall_s,bits_per_s,speedup_vs_1w\n");

  std::vector<Point> points;
  bool determinism_ok = true;
  for (int sessions : session_counts) {
    std::vector<SessionReport> reference;
    double base_bps = 0.0;
    for (int workers : worker_counts) {
      RuntimeOptions opt;
      opt.workers = workers;
      opt.deterministic = true;
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<SessionReport> reports;
      {
        DecodeService service(opt);
        for (int i = 0; i < sessions; ++i) service.submit(make_spec(i));
        reports = service.drain();
      }
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      long bits = 0;
      for (const SessionReport& r : reports)
        if (r.run.success) bits += r.message_bits;
      const double bps = wall > 0 ? static_cast<double>(bits) / wall : 0.0;
      if (workers == worker_counts.front()) {
        reference = reports;
        base_bps = bps;
      } else {
        for (std::size_t i = 0; i < reports.size(); ++i) {
          if (reports[i].run.success != reference[i].run.success ||
              reports[i].run.symbols != reference[i].run.symbols ||
              reports[i].run.attempts != reference[i].run.attempts) {
            std::fprintf(stderr,
                         "DETERMINISM VIOLATION: session %zu differs at "
                         "workers=%d\n",
                         i, workers);
            determinism_ok = false;
          }
        }
      }
      points.push_back({workers, sessions, bits, wall, bps});
      std::printf("%d,%d,%ld,%.3f,%.0f,%.2f\n", workers, sessions, bits, wall,
                  bps, base_bps > 0 ? bps / base_bps : 0.0);
    }
  }

  // ---- Cross-session batching + sharding points: the same 10k-session
  // mixed-key small-B fleet served three ways in one run, one worker:
  //
  //   batch:off      max_batch=1, one shard    (the per-job baseline)
  //   batch:on       max_batch=128, one shard  (PR 8's aggregation)
  //   queue:sharded  max_batch=128, 32 shards  (key-affine colocation)
  //
  // The worker is parked on a gated task while the fleet submits, so
  // the timed phase serves an already-deep ready queue, and the
  // within-run ratios cancel machine speed — which is what the CI
  // --expect-ratio gates key on. The runs use non-deterministic mode
  // with adaptation disabled: every attempt then runs at configured
  // effort and sessions are independent seeded state machines, so all
  // three modes must still produce bit-identical reports (sharding and
  // batching are scheduling changes, not decode changes) while the
  // sharded mode actually exercises multi-shard routing, which
  // deterministic mode would collapse to one ordered shard.
  // Mode 3 (trace:on) re-runs the sharded configuration with the event
  // tracer recording every stage — the within-run trace:on / trace:off
  // ratio is the tracing-overhead gate (the sharded point doubles as
  // trace:off in the JSON).
  const int small_sessions = std::max(10000, benchutil::trials(1250));
  constexpr int kSmallModes = 4;  // 0=batch:off 1=batch:on 2=queue:sharded 3=trace:on
  static const char* const kSmallModeName[kSmallModes] = {
      "batch:off", "batch:on", "queue:sharded", "trace:on"};
  auto run_small = [&](int mode, std::vector<SessionReport>& reports) {
    RuntimeOptions opt;
    opt.workers = 1;
    opt.max_in_flight = small_sessions;
    opt.adapt.enabled = false;
    opt.batch.max_batch = mode == 0 ? 1 : 128;
    opt.batch.window = 64;  // the runtime default scan budget
    opt.shards = mode >= 2 ? 32 : 1;
    opt.trace.enabled = mode == 3;
    DecodeService service(opt);
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future().share());
    service.post([gate](DecodeService::WorkerScope&) { gate.wait(); });
    for (int i = 0; i < small_sessions; ++i) service.submit(small_spec(i));
    const auto t0 = std::chrono::steady_clock::now();
    release.set_value();
    reports = service.drain();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  // Host noise is the enemy of the within-run ratios: the modes run
  // alternately for paired repetitions and each mode reports its best
  // rate. Interference only ever slows a sample, so best-of-N converges
  // on the machine's true rate for every mode (the same keep-the-best
  // convention tools/perf_snapshot.py applies across repetitions), and
  // one slow window cannot decide the gate.
  std::vector<double> small_samples[kSmallModes];
  double small_bps[kSmallModes] = {0.0, 0.0, 0.0, 0.0};
  std::vector<SessionReport> small_ref;
  for (int rep = 0; rep < 7; ++rep) {
    for (int mode = 0; mode < kSmallModes; ++mode) {
      std::vector<SessionReport> reports;
      const double wall = run_small(mode, reports);
      long bits = 0;
      for (const SessionReport& r : reports)
        if (r.run.success) bits += r.message_bits;
      if (small_ref.empty()) {
        small_ref = reports;
      } else {
        for (std::size_t i = 0; i < reports.size(); ++i) {
          if (reports[i].run.success != small_ref[i].run.success ||
              reports[i].run.symbols != small_ref[i].run.symbols ||
              reports[i].run.attempts != small_ref[i].run.attempts) {
            std::fprintf(stderr,
                         "DETERMINISM VIOLATION: small-B session %zu "
                         "differs (%s)\n",
                         i, kSmallModeName[mode]);
            determinism_ok = false;
          }
        }
      }
      if (wall > 0)
        small_samples[mode].push_back(static_cast<double>(bits) / wall);
    }
  }
  for (int mode = 0; mode < kSmallModes; ++mode)
    small_bps[mode] = *std::max_element(small_samples[mode].begin(),
                                        small_samples[mode].end());
  std::printf(
      "# small-B fleet (32 keys, n={4,8} x B=2, %d sessions, 1 worker): "
      "batch off %.0f, batch on %.0f (%.2fx), sharded %.0f bits/s "
      "(%.2fx vs batched single queue), tracing %.0f bits/s "
      "(%.2fx of untraced)\n",
      small_sessions, small_bps[0], small_bps[1],
      small_bps[0] > 0 ? small_bps[1] / small_bps[0] : 0.0, small_bps[2],
      small_bps[1] > 0 ? small_bps[2] / small_bps[1] : 0.0, small_bps[3],
      small_bps[2] > 0 ? small_bps[3] / small_bps[2] : 0.0);

  if (json_path) {
    std::FILE* f = std::fopen(json_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::fprintf(f, "{\n  \"context\": {\"num_cpus\": %u, \"mhz_per_cpu\": 0},\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"benchmarks\": [\n");
    for (const Point& p : points)
      std::fprintf(f,
                   "    {\"name\": \"BM_RuntimeThroughput/workers:%d/"
                   "sessions:%d\", \"run_type\": \"iteration\", "
                   "\"items_per_second\": %.1f},\n",
                   p.workers, p.sessions, p.bits_per_s);
    // Stable names (no session count): perf_guard's --expect-ratio
    // gates hard-fail if a point goes missing, so every run emits all
    // of them.
    for (int mode = 0; mode < kSmallModes; ++mode)
      std::fprintf(f,
                   "    {\"name\": \"BM_RuntimeSmallB/%s\", "
                   "\"run_type\": \"iteration\", "
                   "\"items_per_second\": %.1f},\n",
                   kSmallModeName[mode], small_bps[mode]);
    // trace:off is the sharded point under the name the tracing-
    // overhead --expect-ratio gate pairs with trace:on.
    std::fprintf(f,
                 "    {\"name\": \"BM_RuntimeSmallB/trace:off\", "
                 "\"run_type\": \"iteration\", "
                 "\"items_per_second\": %.1f}\n",
                 small_bps[2]);
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  if (!determinism_ok) return 1;

  if (min_scaling > 0.0) {
    // Largest session batch: bits/s at max workers vs 1 worker.
    const int sessions = session_counts.back();
    double one = 0.0, best = 0.0;
    int best_workers = 0;
    for (const Point& p : points) {
      if (p.sessions != sessions) continue;
      if (p.workers == 1) one = p.bits_per_s;
      if (p.workers >= best_workers) {
        best_workers = p.workers;
        best = p.bits_per_s;
      }
    }
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    if (cores == 1) {
      std::printf("# scaling gate skipped: single-core host (no speedup "
                  "physically possible); CI runs this gate on multi-core "
                  "runners\n");
      return 0;
    }
    double required = min_scaling;
    if (cores < static_cast<unsigned>(best_workers))
      required = std::max(1.0, min_scaling * static_cast<double>(cores) /
                                   static_cast<double>(best_workers));
    const double ratio = one > 0 ? best / one : 0.0;
    std::printf("# scaling gate: %d workers / 1 worker = %.2fx "
                "(required >= %.2fx on %u cores)\n",
                best_workers, ratio, required, cores);
    if (ratio < required) {
      std::fprintf(stderr,
                   "SCALING REGRESSION: %.2fx < required %.2fx\n", ratio,
                   required);
      return 1;
    }
  }
  return 0;
}
