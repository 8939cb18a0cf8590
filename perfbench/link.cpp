// link_mux: 64 concurrent datagram links through the link-layer mux.
//
//   LinkSender -> AWGN -> LinkSymbol -> SessionMux::ingest / pause_point
//     -> decode tasks on a 1-worker DecodeService -> ACK bitmap
//     -> LinkSender::handle_ack
//
// A closed loop in lock-step frames: every open link sends one burst
// and pauses, the sending thread waits for the mux to go idle, then
// every link gets its ACK. A round opens 64 links with 256-byte
// datagrams and runs frames until every link is done. ACK latency is a
// link's pause_point to its ACK reaching the sender.
//
// The service runs with load adaptation off, so every mux attempt is
// the full-beam decode that an inline-decoding LinkReceiver makes at the
// same pause, and the mux path must reproduce the sequential link loop
// (LinkSender -> AWGN -> LinkReceiver, no mux, no service) exactly:
// every link ends the same way after the same number of symbols, and
// every delivered datagram equals the one sent, byte for byte, once
// block padding is stripped. The sequential loop is computed once,
// untimed, as the reference; the traced run also times it (waterfall
// layer 2).

#include <memory>
#include <optional>
#include <string>

#include "channel/awgn.h"
#include "common.h"
#include "runtime/decode_service.h"
#include "runtime/session_mux.h"
#include "spinal/link.h"
#include "util/prng.h"

namespace perfbench {
namespace {

using namespace spinal;
using runtime::DecodeService;
using runtime::SessionMux;

constexpr std::size_t kLinks = 64;
constexpr std::size_t kDatagramBytes = 256;
constexpr double kSnrDb = 10.0;
constexpr int kMinRounds = 3;
constexpr double kNominalRoundS = 2.5;  ///< sets the untraced round count
constexpr int kSetups = 25;  ///< a set-up takes a few ms: many, for a steady median
constexpr int kMaxRedraws = 2;

CodeParams link_params() {
  CodeParams p;
  p.n = 256;
  p.B = 64;
  p.max_passes = 32;
  return p;
}

struct Traffic {
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::vector<std::uint64_t> channel_seeds;
  std::vector<int> redraws;  ///< per link: times its inputs were replaced
};

/// (Re)draws link @p s's datagram and channel seed for its redraw count.
void draw_link(Traffic& t, std::uint64_t seed, std::size_t s) {
  const auto item = static_cast<std::uint64_t>(s) +
                    static_cast<std::uint64_t>(kLinks) *
                        static_cast<std::uint64_t>(t.redraws[s]);
  util::Xoshiro256 prng(mix_seed(seed, 3, item));
  for (auto& b : t.datagrams[s]) b = static_cast<std::uint8_t>(prng.next_u64());
  t.channel_seeds[s] = mix_seed(seed, 4, item);
}

Traffic make_traffic(std::uint64_t seed) {
  Traffic t;
  t.datagrams.assign(kLinks, std::vector<std::uint8_t>(kDatagramBytes));
  t.channel_seeds.assign(kLinks, 0);
  t.redraws.assign(kLinks, 0);
  for (std::size_t s = 0; s < kLinks; ++s) draw_link(t, seed, s);
  return t;
}

/// How one link ended.
struct Outcome {
  bool done = false;    ///< every block ACKed (else the sender gave up)
  bool intact = false;  ///< done, and the datagram equals the one sent
  long symbols = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome(const LinkSender& sender,
                std::optional<std::vector<std::uint8_t>> got,
                const std::vector<std::uint8_t>& sent) {
  Outcome o;
  o.done = sender.done();
  o.symbols = sender.symbols_sent();
  if (o.done && got && got->size() >= sent.size()) {
    got->resize(sent.size());  // strip block padding
    o.intact = *got == sent;
  }
  return o;
}

/// One link of a round: the sender, its channel and its mux session.
struct Link {
  Link(const CodeParams& p, const std::vector<std::uint8_t>& datagram,
       std::uint64_t channel_seed)
      : sender(p, datagram), channel(kSnrDb, channel_seed) {}
  LinkSender sender;
  channel::AwgnChannel channel;
  SessionMux::SessionId id = 0;
  std::int64_t paused_ns = 0;
  bool active = true;
};

/// Timers around the mux calls (traced rounds only).
struct MuxTimers {
  Samples open_us, pause_point_us, wait_idle_ms, poll_acks_us;
  double next_burst_ns = 0, ingest_ns = 0;
  long symbols = 0;
};

std::vector<Link> open_links(SessionMux& mux, const Traffic& traffic,
                             MuxTimers* timers) {
  const CodeParams p = link_params();
  std::vector<Link> links;
  links.reserve(kLinks);
  for (std::size_t s = 0; s < kLinks; ++s) {
    links.emplace_back(p, traffic.datagrams[s], traffic.channel_seeds[s]);
    const std::int64_t t0 = now_ns();
    links.back().id = mux.open(p, links.back().sender.block_count());
    if (timers) timers->open_us.add(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return links;
}

struct Round {
  double wall_s = 0;
  long bits = 0, symbols = 0, datagrams = 0, failed = 0, frames = 0, acks = 0;
  bool correct = true;
};

Round run_frames(SessionMux& mux, std::vector<Link>& links, const Traffic& traffic,
                 const std::vector<Outcome>& ref, Samples& ack_ms, MuxTimers* timers) {
  Round r;
  const std::int64_t t0 = now_ns();
  std::vector<LinkSymbol> burst;
  for (std::size_t open = kLinks; open > 0;) {
    ++r.frames;
    for (Link& l : links) {
      if (!l.active) continue;
      const std::int64_t tb = now_ns();
      burst = l.sender.next_burst();
      const std::int64_t ti = now_ns();
      for (LinkSymbol& sym : burst) sym.value = l.channel.transmit(sym.value);
      const std::int64_t tc = now_ns();
      for (const LinkSymbol& sym : burst) mux.ingest(l.id, sym);
      const std::int64_t tp = now_ns();
      mux.pause_point(l.id);
      l.paused_ns = now_ns();
      if (timers) {
        timers->next_burst_ns += static_cast<double>(ti - tb);
        timers->ingest_ns += static_cast<double>(tp - tc);
        timers->symbols += static_cast<long>(burst.size());
        timers->pause_point_us.add(static_cast<double>(l.paused_ns - tp) / 1e3);
      }
    }
    const std::int64_t tw = now_ns();
    mux.wait_idle();
    const std::int64_t ta = now_ns();
    r.acks += static_cast<long>(mux.poll_acks().size());
    if (timers) {
      timers->wait_idle_ms.add(static_cast<double>(ta - tw) / 1e6);
      timers->poll_acks_us.add(static_cast<double>(now_ns() - ta) / 1e3);
    }
    for (std::size_t s = 0; s < links.size(); ++s) {
      Link& l = links[s];
      if (!l.active) continue;
      l.sender.handle_ack(mux.current_ack(l.id));
      ack_ms.add(static_cast<double>(now_ns() - l.paused_ns) / 1e6);
      if (!l.sender.done() && !l.sender.gave_up()) continue;
      l.active = false;
      --open;
      ++r.datagrams;
      r.symbols += l.sender.symbols_sent();
      const std::vector<std::uint8_t>& sent = traffic.datagrams[s];
      const Outcome o = outcome(l.sender, mux.datagram(l.id), sent);
      // A give-up the reference shares is a failure, not a mismatch; a
      // wrong datagram, or any departure from the reference, is both.
      r.correct = r.correct && o == ref[s] && (o.intact || !o.done);
      if (o.intact)
        r.bits += static_cast<long>(8 * sent.size());
      else
        ++r.failed;
    }
  }
  r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return r;
}

/// Per-symbol costs of the sequential link loop (traced passes only).
struct SeqCost {
  double next_burst_ns = 0, receive_ns = 0;
  long symbols = 0;
};

/// Link @p s alone through sender, channel and an inline-decoding
/// LinkReceiver: the reference, and waterfall layer 2.
Outcome sequential_link(const Traffic& traffic, std::size_t s, SeqCost* cost) {
  const CodeParams p = link_params();
  const auto& sent = traffic.datagrams[s];
  LinkSender sender(p, sent);
  LinkReceiver receiver(p, sender.block_count());
  channel::AwgnChannel chan(kSnrDb, traffic.channel_seeds[s]);
  while (!sender.done() && !sender.gave_up()) {
    const std::int64_t tb = now_ns();
    std::vector<LinkSymbol> burst = sender.next_burst();
    const std::int64_t tc = now_ns();
    for (LinkSymbol& sym : burst) sym.value = chan.transmit(sym.value);
    const std::int64_t tr = now_ns();
    for (const LinkSymbol& sym : burst) receiver.receive(sym);
    if (cost) {
      cost->receive_ns += static_cast<double>(now_ns() - tr);
      cost->next_burst_ns += static_cast<double>(tc - tb);
      cost->symbols += static_cast<long>(burst.size());
    }
    sender.handle_ack(receiver.make_ack());
  }
  return outcome(sender, receiver.datagram(), sent);
}

/// The reference outcome of every link. A block CRC (16 bits) passes a
/// wrong decode about once in 65536 failed attempts, and one traffic set
/// makes ~6k failed attempts, so now and then a seed draws a link that
/// the reference itself delivers wrong (a program defect the benchmark
/// steps around, not one it hides). Such links, and only they, are
/// redrawn; a give-up is kept and counts as a failure. Returns the
/// number of redraws; above kMaxRedraws the caller fails the run.
int make_reference(Traffic& traffic, std::uint64_t seed, std::vector<Outcome>& ref) {
  int redraws = 0;
  ref.resize(kLinks);
  for (std::size_t s = 0; s < kLinks; ++s) {
    ref[s] = sequential_link(traffic, s, nullptr);
    while (ref[s].done && !ref[s].intact && redraws <= kMaxRedraws) {
      ++redraws;
      ++traffic.redraws[s];
      draw_link(traffic, seed, s);
      ref[s] = sequential_link(traffic, s, nullptr);
    }
  }
  return redraws;
}

}  // namespace

Result run_link(const RunConfig& cfg) {
  Traffic traffic = make_traffic(cfg.seed);
  Result out;
  EndToEnd e2e;
  Layers lay;
  std::vector<Outcome> ref;
  const int redraws = make_reference(traffic, cfg.seed, ref);
  lay.reference_redraws = redraws;
  out.notes.push_back("reference redrew " + std::to_string(redraws) +
                      " link(s) it delivered wrong (CRC-16 false accept; limit " +
                      std::to_string(kMaxRedraws) + ")");
  if (redraws > kMaxRedraws) out.correct = false;

  runtime::RuntimeOptions opt;
  opt.workers = 1;
  opt.adapt.enabled = false;  // full-beam attempts: the mux path is the reference's

  // Set-up: service and mux construction plus opening every link,
  // repeated; the last set-up's links are the first timed round.
  std::unique_ptr<DecodeService> svc;
  std::unique_ptr<SessionMux> mux;
  std::vector<Link> links;
  for (int rep = 0; rep < kSetups; ++rep) {
    links.clear();
    mux.reset();
    svc.reset();
    const std::int64_t t0 = now_ns();
    svc = std::make_unique<DecodeService>(opt);
    mux = std::make_unique<SessionMux>(*svc);
    links = open_links(*mux, traffic, nullptr);
    e2e.setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Timed rounds: a fixed count untraced; the traced run alternates
  // untraced and traced rounds until the deadline and follows each
  // traced round with a sequential pass over a quarter of the links
  // (layer 2), so the layers are sampled in the same time window and
  // their ratios are within-run ratios.
  const int fixed_rounds = timed_rounds(cfg.seconds, kNominalRoundS, kMinRounds);
  MuxTimers timers;
  SeqCost seq_cost;
  long bits = 0, symbols = 0, acks = 0, frames = 0;
  double wall_s = 0, traced_wall_s = 0;
  double rss_first = 0, rss_last = 0;
  const std::int64_t t_start = now_ns();
  int rounds = 0;
  while (cfg.trace ? rounds < kMinRounds ||
                         static_cast<double>(now_ns() - t_start) / 1e9 < cfg.seconds
                   : rounds < fixed_rounds) {
    const bool traced = cfg.trace && rounds % 2 == 1;
    if (rounds > 0) links = open_links(*mux, traffic, traced ? &timers : nullptr);
    Samples ack_ms;
    const Round r =
        run_frames(*mux, links, traffic, ref, ack_ms, traced ? &timers : nullptr);
    e2e.add_round_latencies(ack_ms);
    ++rounds;
    out.correct = out.correct && r.correct;
    out.attempted += r.datagrams;
    out.failed += r.failed;
    bits += r.bits;
    symbols += r.symbols;
    acks += r.acks;
    frames += r.frames;
    wall_s += r.wall_s;
    const double bps = static_cast<double>(r.bits) / r.wall_s;
    e2e.goodput_bps.add(bps);
    if (traced) {
      lay.goodput_traced_bps.add(bps);
      traced_wall_s += r.wall_s;
      const std::size_t first = static_cast<std::size_t>(rounds / 2 % 4) * kLinks / 4;
      long seq_bits = 0;
      const std::int64_t t0 = now_ns();
      for (std::size_t s = first; s < first + kLinks / 4; ++s) {
        const Outcome o = sequential_link(traffic, s, &seq_cost);
        out.correct = out.correct && o == ref[s];
        if (o.intact) seq_bits += static_cast<long>(8 * kDatagramBytes);
      }
      lay.sequential_bps.add(static_cast<double>(seq_bits) /
                             (static_cast<double>(now_ns() - t0) / 1e9));
    } else {
      lay.goodput_untraced_bps.add(bps);
    }
    rss_last = rss_mib();
    if (rounds == 1) rss_first = rss_last;
    if (rounds == kMinRounds) e2e.peak_rss_mib = peak_rss_mib();
  }
  e2e.rate_bits_per_symbol = static_cast<double>(bits) / static_cast<double>(symbols);
  e2e.delivered_fraction =
      1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  if (!cfg.trace) {
    emit(e2e, out);
    return out;
  }

  // spinal.replay_bps stays 0: the link has no decode-only replay, and
  // the service's summed decode latency is not one.
  lay.receive_chunk_ns_per_symbol =
      seq_cost.receive_ns / static_cast<double>(seq_cost.symbols);
  const runtime::TelemetrySnapshot snap = svc->telemetry();
  const runtime::Counters& c = snap.counters;
  const double n_rounds = static_cast<double>(rounds);
  const double decode_s = snap.decode_latency_us.mean() *
                          static_cast<double>(snap.decode_latency_us.count()) / 1e6;
  const auto f32 = static_cast<int>(Family::kF32);
  lay.decode_calls_all = lay.decode_calls[f32] =
      static_cast<double>(snap.decode_latency_us.count()) / n_rounds;
  lay.decode_us_p50_all = lay.decode_us_p50[f32] = snap.decode_latency_us.quantile(0.5);
  lay.decode_us_p99_all = lay.decode_us_p99[f32] = snap.decode_latency_us.quantile(0.99);
  lay.decode_share = decode_s / wall_s;
  lay.next_chunk_ns_per_symbol = timers.next_burst_ns / static_cast<double>(timers.symbols);
  lay.feed_share = (timers.next_burst_ns + timers.ingest_ns) / (traced_wall_s * 1e9);
  lay.submit_us = timers.open_us;
  lay.drain_ms = timers.wait_idle_ms;
  lay.jobs = static_cast<double>(c.jobs) / n_rounds;
  lay.claims = static_cast<double>(snap.stages.batch_assembly_us.count()) / n_rounds;
  lay.queue_wait_us_p50 = snap.stages.queue_wait_us.quantile(0.5);
  lay.queue_wait_us_p99 = snap.stages.queue_wait_us.quantile(0.99);
  lay.batch_assembly_us_p50 = snap.stages.batch_assembly_us.quantile(0.5);
  lay.batch_assembly_us_p99 = snap.stages.batch_assembly_us.quantile(0.99);
  lay.decode_service_us_p50 = snap.stages.decode_service_us.quantile(0.5);
  lay.steals = static_cast<double>(snap.queue.steals) / n_rounds;
  lay.reduced_effort_attempts = static_cast<double>(c.reduced_effort_attempts) / n_rounds;
  lay.full_effort_retries = static_cast<double>(c.full_effort_retries) / n_rounds;
  lay.unpinned_decodes = static_cast<double>(c.unpinned_decodes) / n_rounds;
  lay.rss_growth_mib_per_round =
      (rss_last - rss_first) / static_cast<double>(std::max(1, rounds - 1));
  lay.mux_ingest_ns_per_symbol = timers.ingest_ns / static_cast<double>(timers.symbols);
  lay.mux_pause_point_us = timers.pause_point_us;
  lay.mux_wait_idle_ms = timers.wait_idle_ms;
  lay.mux_poll_acks_us = timers.poll_acks_us;
  lay.mux_frames = static_cast<double>(frames) / n_rounds;
  lay.mux_attempts_per_block =
      static_cast<double>(c.decode_attempts) / static_cast<double>(acks);
  lay.mux_useful_attempt_ratio =
      static_cast<double>(acks) / static_cast<double>(c.decode_attempts);
  lay.mux_stale_symbols = static_cast<double>(mux->stale_symbols()) / n_rounds;
  emit(lay, out);
  return out;
}

}  // namespace perfbench
