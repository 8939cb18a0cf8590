// Fleet workloads: one fixed fleet of rateless sessions, served in
// repeated submit -> serve -> drain() rounds by one long-lived
// DecodeService with one worker. The worker is parked on a gate task
// while a round is admitted, and load adaptation is off, so every round
// does the same work. Every session's (success, symbols, attempts) must
// equal the sequential reference loop's (runtime::run_sequential).
//
//   fleet_small_b    10k tiny BSC sessions over 32 CodeParams keys:
//                    decode is nearly free, so the runtime hop, feed and
//                    bookkeeping dominate.
//   fleet_reference  48 sessions at the paper's reference geometry
//                    (n=256, k=4, B=256, d=1), a third each f32 AWGN,
//                    u16 AWGN and BSC: decode kernels dominate.
//
// The traced run adds the waterfall below the service: a decode-only
// replay of the fleet's attempts through try_decode_batch (layer 1) and
// the sequential MessageRun loop (layer 2), and times the service
// rounds (layer 3) through TimedSession.

#include <future>
#include <map>
#include <stdexcept>

#include "common.h"
#include "runtime/decode_service.h"
#include "sim/bsc_session.h"
#include "sim/spinal_session.h"
#include "timed_session.h"
#include "util/prng.h"

namespace perfbench {
namespace {

using namespace spinal;
using runtime::DecodeService;
using runtime::SessionReport;
using runtime::SessionSpec;

struct FleetShape {
  int sessions;
  int generations;  ///< distinct seeded fleets; round r serves r mod this
  int min_rounds;   ///< timed rounds run in any case (at least one per
                    ///< generation); the peak-RSS figure is read after
                    ///< the last of them
  int setups;       ///< set-up repetitions (setup_s is their median)
  double nominal_round_s;  ///< sets the untraced round count
};

FleetShape shape_of(const std::string& workload) {
  if (workload == "fleet_small_b") return {10000, 1, 8, 7, 0.35};
  if (workload == "fleet_reference") return {48, 8, 8, 5, 1.0};
  throw std::invalid_argument("unknown fleet workload: " + workload);
}

struct Item {
  CodeParams params;
  Family family = Family::kF32;
  runtime::ChannelSpec channel;
  sim::EngineOptions engine;
  util::BitVec message;
};

std::vector<Item> make_fleet(const std::string& workload, std::uint64_t seed,
                             int generation) {
  const FleetShape shape = shape_of(workload);
  std::vector<Item> fleet(static_cast<std::size_t>(shape.sessions));
  for (int i = 0; i < shape.sessions; ++i) {
    Item& it = fleet[static_cast<std::size_t>(i)];
    const auto item = static_cast<std::uint64_t>(generation * shape.sessions + i);
    util::Xoshiro256 prng(mix_seed(seed, 1, item));
    it.channel.seed = mix_seed(seed, 2, item);
    if (workload == "fleet_small_b") {
      // 2 block lengths x 16 give-up bounds (never reached at this
      // crossover) = 32 workspace keys of identical per-job cost,
      // interleaved in arrival order.
      it.params.n = 4 + 4 * ((i / 16) % 2);
      it.params.max_passes = 32 + i % 16;
      it.params.c = 1;
      it.params.B = 2;
      it.family = Family::kBsc;
      it.channel.kind = sim::ChannelKind::kBsc;
      it.channel.crossover = 0.02;
    } else {
      it.family = static_cast<Family>(i % kFamilies);
      if (it.family == Family::kBsc) {
        // One coded bit per symbol: a block needs several passes, so
        // attempt every half pass rather than every subpass.
        it.params.c = 1;
        it.channel.kind = sim::ChannelKind::kBsc;
        it.channel.crossover = 0.02;
        it.engine.attempt_every = 4;
      } else {
        if (it.family == Family::kU16)
          it.params.cost_precision = CostPrecision::kU16;
        it.channel.snr_db = 10.0;
      }
    }
    it.message = prng.random_bits(static_cast<std::size_t>(it.params.n));
  }
  return fleet;
}

enum class Wrap { kPlain, kStamped, kTimed };

std::unique_ptr<sim::RatelessSession> make_session(const CodeParams& p,
                                                   Family f, Wrap wrap,
                                                   std::int64_t* done_ns,
                                                   Recorder* rec) {
  const bool bsc = f == Family::kBsc;
  switch (wrap) {
    case Wrap::kStamped:
      if (bsc) return std::make_unique<Stamped<sim::BscSession>>(done_ns, p);
      return std::make_unique<Stamped<sim::SpinalSession>>(done_ns, p);
    case Wrap::kTimed:
      return std::make_unique<TimedSession>(
          make_session(p, f, Wrap::kPlain, nullptr, nullptr), f, rec, done_ns);
    case Wrap::kPlain:
      break;
  }
  if (bsc) return std::make_unique<sim::BscSession>(p);
  return std::make_unique<sim::SpinalSession>(p);
}

/// Specs for @p fleet; stamped and timed sessions write their completion
/// time to (*done)[i].
std::vector<SessionSpec> make_specs(const std::vector<Item>& fleet, Wrap wrap,
                                    std::vector<std::int64_t>* done,
                                    Recorder* rec) {
  std::vector<SessionSpec> specs(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const Item& it = fleet[i];
    std::int64_t* slot = done ? &(*done)[i] : nullptr;
    specs[i].make_session = [p = it.params, f = it.family, wrap, slot, rec] {
      return make_session(p, f, wrap, slot, rec);
    };
    specs[i].channel = it.channel;
    specs[i].engine = it.engine;
    specs[i].message = it.message;
  }
  return specs;
}

bool same_run(const sim::RunResult& a, const sim::RunResult& b) {
  return a.success == b.success && a.symbols == b.symbols &&
         a.attempts == b.attempts;
}

/// One sequential pass over the fleet (waterfall layer 2).
std::vector<SessionReport> run_reference(const std::vector<SessionSpec>& specs,
                                         double* wall_s) {
  const std::int64_t t0 = now_ns();
  std::vector<SessionReport> ref;
  ref.reserve(specs.size());
  for (const SessionSpec& s : specs) ref.push_back(runtime::run_sequential(s));
  *wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return ref;
}

long verified_bits(const std::vector<SessionReport>& reports) {
  long bits = 0;
  for (const SessionReport& r : reports)
    if (r.run.success) bits += r.message_bits;
  return bits;
}

/// Waterfall layer 1: the fleet's decode attempts with nothing else
/// timed. Every session is fed through the public session API exactly
/// as the engine feeds it (MessageRun); within one batch key, all
/// sessions due for an attempt are decoded by one try_decode_batch
/// call, level-synchronously, until every session finished. Returns the
/// decode-call seconds; @p matches reports whether every outcome equals
/// the reference.
double replay_decodes(const std::vector<SessionSpec>& specs,
                      const std::vector<SessionReport>& ref, bool* matches) {
  constexpr std::size_t kMaxBatch = 128;  // the service's claim size
  const std::size_t n = specs.size();
  std::vector<std::unique_ptr<sim::RatelessSession>> sessions;
  std::vector<sim::ChannelSim> channels;
  std::vector<sim::MessageRun> runs;
  std::vector<sim::WorkspaceKey> batch_keys, ws_keys;
  sessions.reserve(n);
  channels.reserve(n);
  runs.reserve(n);
  for (const SessionSpec& s : specs) {
    sessions.push_back(s.make_session());
    channels.push_back(s.channel.make());
    runs.emplace_back(*sessions.back(), channels.back(), s.message, s.engine);
    batch_keys.push_back(sessions.back()->batch_key());
    ws_keys.push_back(sessions.back()->workspace_key());
  }
  std::map<sim::WorkspaceKey, std::unique_ptr<sim::CodecWorkspace>> pinned;
  std::vector<std::optional<util::BitVec>> candidates(n);
  std::vector<sim::BatchDecodeJob> jobs;
  // One batch key at a time, to completion: the service's key-affine
  // shards serve a key's sessions back to back in the same way.
  std::map<sim::WorkspaceKey, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < n; ++i) groups[batch_keys[i]].push_back(i);
  double decode_ns = 0;
  for (auto& [key, active] : groups) {
    std::vector<std::size_t> idx;
    while (!active.empty()) {
      idx.clear();
      for (std::size_t i : active)
        if (runs[i].feed_to_attempt()) idx.push_back(i);
      active.clear();
      for (std::size_t b = 0; b < idx.size(); b += kMaxBatch) {
        const std::size_t e = std::min(idx.size(), b + kMaxBatch);
        sim::RatelessSession& head = *sessions[idx[b]];
        auto& ws = pinned[ws_keys[idx[b]]];
        if (!ws) ws = head.make_workspace();
        jobs.clear();
        for (std::size_t j = b; j < e; ++j)
          jobs.push_back({sessions[idx[j]].get(), 0, &candidates[idx[j]]});
        const std::int64_t t0 = now_ns();
        head.try_decode_batch(ws.get(), jobs);
        decode_ns += static_cast<double>(now_ns() - t0);
        for (std::size_t j = b; j < e; ++j) {
          runs[idx[j]].record_attempt(candidates[idx[j]]);
          if (!runs[idx[j]].finished()) active.push_back(idx[j]);
        }
      }
    }
  }
  *matches = true;
  for (std::size_t i = 0; i < n; ++i)
    *matches = *matches && same_run(runs[i].result(), ref[i].run);
  return decode_ns / 1e9;
}

struct Round {
  double wall_s = 0;
  long bits = 0, symbols = 0, sessions = 0, failed = 0;
  bool correct = true;
};

/// Optional timers around the service calls (traced rounds only).
struct CallTimers {
  Samples* submit_us = nullptr;
  Samples* drain_ms = nullptr;
};

/// Admits @p specs behind a gate, releases the worker, drains, and
/// checks this round's slice of the drain (drain() returns every report
/// since construction, ordered by session id).
Round serve_round(DecodeService& svc, const std::vector<SessionSpec>& specs,
                  const std::vector<SessionReport>& ref,
                  const std::vector<std::int64_t>& done, Samples& ack_ms,
                  const CallTimers& timers) {
  Round r;
  const std::int64_t t0 = now_ns();
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future().share());
  svc.post([gate](DecodeService::WorkerScope&) { gate.wait(); });
  std::size_t base = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::int64_t ts = now_ns();
    const std::size_t id = svc.submit(specs[i]);
    if (timers.submit_us)
      timers.submit_us->add(static_cast<double>(now_ns() - ts) / 1e3);
    if (i == 0) base = id;
  }
  const std::int64_t t_release = now_ns();
  release.set_value();
  std::vector<SessionReport> all = svc.drain();
  const std::int64_t t1 = now_ns();
  if (timers.drain_ms)
    timers.drain_ms->add(static_cast<double>(t1 - t_release) / 1e6);
  r.wall_s = static_cast<double>(t1 - t0) / 1e9;
  if (all.size() != base + specs.size()) {
    r.correct = false;
    r.failed = static_cast<long>(specs.size());
    r.sessions = static_cast<long>(specs.size());
    return r;
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SessionReport& rep = all[base + i];
    const bool match = same_run(rep.run, ref[i].run);
    r.correct = r.correct && match;
    ++r.sessions;
    r.symbols += rep.run.symbols;
    if (rep.run.success && match)
      r.bits += rep.message_bits;
    else
      ++r.failed;
    ack_ms.add(static_cast<double>(done[i] - t_release) / 1e6);
  }
  return r;
}

runtime::RuntimeOptions service_options(int sessions) {
  runtime::RuntimeOptions opt;
  opt.workers = 1;
  opt.max_in_flight = sessions;
  opt.adapt.enabled = false;
  opt.batch.max_batch = 128;
  opt.batch.window = 64;
  opt.shards = 32;
  return opt;
}

}  // namespace

Result run_fleet(const std::string& workload, const RunConfig& cfg) {
  const FleetShape shape = shape_of(workload);
  const auto gens = static_cast<std::size_t>(shape.generations);
  Result out;
  EndToEnd e2e;
  Layers lay;

  // Per generation: plain specs (reference, replay), stamped specs
  // (untraced rounds), timed specs (traced rounds). Every round serves
  // one generation, so all share one completion-stamp array.
  std::vector<std::int64_t> done(static_cast<std::size_t>(shape.sessions), 0);
  Recorder recorder;
  std::vector<std::vector<SessionSpec>> plain, stamped, timed;
  for (int g = 0; g < shape.generations; ++g) {
    const std::vector<Item> fleet = make_fleet(workload, cfg.seed, g);
    plain.push_back(make_specs(fleet, Wrap::kPlain, nullptr, nullptr));
    stamped.push_back(make_specs(fleet, Wrap::kStamped, &done, nullptr));
    timed.push_back(make_specs(fleet, Wrap::kTimed, &done, &recorder));
  }

  // The sequential reference every served session is checked against.
  std::vector<std::vector<SessionReport>> ref(gens);
  std::vector<long> gen_bits(gens);
  long ref_attempts = 0, ref_successes = 0, ref_sessions = 0;
  for (std::size_t g = 0; g < gens; ++g) {
    double wall = 0;
    ref[g] = run_reference(plain[g], &wall);
    gen_bits[g] = verified_bits(ref[g]);
    for (const SessionReport& r : ref[g]) {
      ref_attempts += r.run.attempts;
      ref_successes += r.run.success ? 1 : 0;
      ++ref_sessions;
    }
  }
  lay.attempts_per_session =
      static_cast<double>(ref_attempts) / static_cast<double>(ref_sessions);
  lay.useful_attempt_ratio =
      static_cast<double>(ref_successes) / static_cast<double>(ref_attempts);

  // Set-up: service construction plus admitting the first generation,
  // repeated; the repetitions' rounds are served untimed (warm-up), and
  // the last service lives on for the timed rounds.
  const runtime::RuntimeOptions opt = service_options(shape.sessions);
  std::unique_ptr<DecodeService> svc;
  for (int rep = 0; rep < shape.setups; ++rep) {
    svc.reset();
    const std::int64_t t0 = now_ns();
    svc = std::make_unique<DecodeService>(opt);
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future().share());
    svc->post([gate](DecodeService::WorkerScope&) { gate.wait(); });
    for (const SessionSpec& s : stamped[0]) svc->submit(s);
    e2e.setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
    release.set_value();
    const std::vector<SessionReport> warm = svc->drain();
    for (std::size_t i = 0; i < ref[0].size(); ++i)
      out.correct = out.correct && warm.size() == ref[0].size() &&
                    same_run(warm[i].run, ref[0][i].run);
  }

  // Timed cycles, one generation each. The untraced run serves one
  // round per cycle, a fixed number of them (drain() copies every report
  // since construction, so a round's cost grows with its index, and a
  // deadline would let a faster program pay for more rounds). The traced
  // run serves cycles until the deadline, each generation twice,
  // untraced then traced, then passes it through the sequential loop
  // (layer 2) and the decode-only replay (layer 1): every layer is
  // sampled in the same time window, so the waterfall ratios and
  // bench.trace_overhead are within-run ratios over the same work. The
  // rate counts the first untraced round of each generation.
  long bits = 0, symbols = 0;
  double traced_wall_s = 0;
  int rounds = 0, traced_rounds = 0;
  double rss_first = 0, rss_last = 0;  // after the first and latest round
  const std::int64_t t_start = now_ns();
  // Whole passes over the generations, so each weighs the same.
  const int fixed_rounds =
      (timed_rounds(cfg.seconds, shape.nominal_round_s, shape.min_rounds) +
       shape.generations - 1) / shape.generations * shape.generations;
  for (std::size_t cycle = 0;
       cfg.trace ? rounds < shape.min_rounds ||
                       static_cast<double>(now_ns() - t_start) / 1e9 < cfg.seconds
                 : rounds < fixed_rounds;
       ++cycle) {
    const std::size_t g = cycle % gens;
    for (const bool traced : {false, true}) {
      if (traced && !cfg.trace) break;
      CallTimers timers;
      if (traced) timers = {&lay.submit_us, &lay.drain_ms};
      Samples ack_ms;
      const Round r = serve_round(*svc, traced ? timed[g] : stamped[g], ref[g], done,
                                  ack_ms, timers);
      e2e.add_round_latencies(ack_ms);
      if (!traced && cycle < gens) {
        bits += r.bits;
        symbols += r.symbols;
      }
      ++rounds;
      out.correct = out.correct && r.correct;
      out.attempted += r.sessions;
      out.failed += r.failed;
      const double bps = static_cast<double>(r.bits) / r.wall_s;
      e2e.goodput_bps.add(bps);
      if (traced) {
        ++traced_rounds;
        lay.goodput_traced_bps.add(bps);
        traced_wall_s += r.wall_s;
      } else {
        lay.goodput_untraced_bps.add(bps);
      }
      rss_last = rss_mib();
      if (rounds == 1) rss_first = rss_last;
      if (rounds == shape.min_rounds) e2e.peak_rss_mib = peak_rss_mib();
    }
    if (cfg.trace) {
      double wall = 0;
      const std::vector<SessionReport> seq = run_reference(plain[g], &wall);
      lay.sequential_bps.add(static_cast<double>(gen_bits[g]) / wall);
      for (std::size_t i = 0; i < seq.size(); ++i)
        out.correct = out.correct && same_run(seq[i].run, ref[g][i].run);
      bool matches = false;
      const double decode_s = replay_decodes(plain[g], ref[g], &matches);
      out.correct = out.correct && matches;
      lay.replay_bps.add(static_cast<double>(gen_bits[g]) / decode_s);
    }
  }
  e2e.rate_bits_per_symbol = static_cast<double>(bits) / static_cast<double>(symbols);
  e2e.delivered_fraction =
      1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  if (!cfg.trace) {
    emit(e2e, out);
    return out;
  }

  // ---- per-layer figures from the traced rounds and the service ----
  const CallTally& t = recorder.total();
  const double traced_wall_ns = traced_wall_s * 1e9;
  Samples all_us;
  double decode_ns = 0;
  for (int f = 0; f < kFamilies; ++f) {
    lay.decode_calls[f] =
        static_cast<double>(t.decode_us[f].size()) / static_cast<double>(traced_rounds);
    lay.decode_us_p50[f] = t.decode_us[f].quantile(0.5);
    lay.decode_us_p99[f] = t.decode_us[f].quantile(0.99);
    all_us.append(t.decode_us[f]);
    decode_ns += t.decode_ns[f];
  }
  lay.decode_calls_all =
      static_cast<double>(all_us.size()) / static_cast<double>(traced_rounds);
  lay.decode_us_p50_all = all_us.quantile(0.5);
  lay.decode_us_p99_all = all_us.quantile(0.99);
  lay.decode_share = decode_ns / traced_wall_ns;
  lay.next_chunk_ns_per_symbol =
      t.next_chunk_ns / static_cast<double>(std::max(1L, t.next_chunk_symbols));
  lay.receive_chunk_ns_per_symbol =
      t.receive_chunk_ns / static_cast<double>(std::max(1L, t.receive_chunk_symbols));
  lay.feed_share = (t.next_chunk_ns + t.receive_chunk_ns) / traced_wall_ns;

  const runtime::TelemetrySnapshot snap = svc->telemetry();
  const double service_rounds = static_cast<double>(rounds + 1);  // + warm-up
  const runtime::Counters& c = snap.counters;
  lay.jobs = static_cast<double>(c.jobs) / service_rounds;
  lay.claims = static_cast<double>(snap.stages.batch_assembly_us.count()) / service_rounds;
  lay.queue_wait_us_p50 = snap.stages.queue_wait_us.quantile(0.5);
  lay.queue_wait_us_p99 = snap.stages.queue_wait_us.quantile(0.99);
  lay.batch_assembly_us_p50 = snap.stages.batch_assembly_us.quantile(0.5);
  lay.batch_assembly_us_p99 = snap.stages.batch_assembly_us.quantile(0.99);
  lay.decode_service_us_p50 = snap.stages.decode_service_us.quantile(0.5);
  lay.steals = static_cast<double>(snap.queue.steals) / service_rounds;
  lay.reduced_effort_attempts =
      static_cast<double>(c.reduced_effort_attempts) / service_rounds;
  lay.full_effort_retries = static_cast<double>(c.full_effort_retries) / service_rounds;
  lay.unpinned_decodes = static_cast<double>(c.unpinned_decodes) / service_rounds;
  lay.rss_growth_mib_per_round =
      (rss_last - rss_first) / static_cast<double>(std::max(1, rounds - 1));
  emit(lay, out);
  return out;
}

}  // namespace perfbench
