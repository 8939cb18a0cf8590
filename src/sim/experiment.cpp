#include "sim/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/awgn.h"
#include "runtime/decode_service.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "util/math.h"
#include "util/prng.h"

namespace spinal::sim {

namespace {

/// The runtime of one sweep point: deterministic, with
/// SPINAL_BENCH_THREADS workers but no more than @p trials (each worker
/// pins its own decode workspaces), and one admitted session per
/// worker, so a point holds no more live sessions (a Strider session
/// keeps every pass) than can run at once.
runtime::RuntimeOptions sweep_runtime(int trials) {
  runtime::RuntimeOptions opt;
  opt.workers = std::clamp(trials, 1, runtime::bench_threads());
  opt.max_in_flight = opt.workers;
  opt.deterministic = true;
  return opt;
}

}  // namespace

RateMeasurement measure_rate(const SessionFactory& make_session, double snr_db,
                             const SweepOptions& opt) {
  // ChannelSpec would build a BSC at its default crossover instead.
  if (opt.channel == ChannelKind::kBsc)
    throw std::invalid_argument("measure_rate: a sweep has an SNR, not a BSC crossover");
  runtime::DecodeService service(sweep_runtime(opt.trials));
  for (int t = 0; t < opt.trials; ++t) {
    const std::uint64_t seed = opt.seed + 0x1000003 * static_cast<std::uint64_t>(t);
    // The session is built here, where its message length is needed;
    // the spec hands it to the service on its one admission-time call.
    auto session =
        std::make_shared<std::unique_ptr<RatelessSession>>(make_session());
    runtime::SessionSpec spec;
    util::Xoshiro256 prng(seed ^ 0xC0FFEE);
    spec.message = prng.random_bits((*session)->message_bits());
    spec.make_session = [session] { return std::move(*session); };
    spec.channel.kind = opt.channel;
    spec.channel.snr_db = snr_db;
    spec.channel.coherence = opt.coherence;
    spec.channel.seed = seed;
    spec.engine.attempt_every = opt.attempt_every;
    spec.engine.attempt_growth = opt.attempt_growth;
    service.submit(std::move(spec));
  }

  // Reduce in trial order (drain() returns reports by session id): the
  // accumulation sequence of a sequential loop, hence bit-identical.
  RateMeasurement m;
  m.snr_db = snr_db;
  long total_symbols = 0;
  long decoded_bits = 0;
  int successes = 0;
  double success_symbols = 0;
  for (const runtime::SessionReport& r : service.drain()) {
    total_symbols += r.run.symbols;
    if (r.run.success) {
      ++successes;
      decoded_bits += r.message_bits;
      success_symbols += static_cast<double>(r.run.symbols);
      m.symbols_to_decode.add(static_cast<double>(r.run.symbols));
    }
  }

  m.rate = total_symbols > 0 ? static_cast<double>(decoded_bits) / total_symbols : 0.0;
  m.gap_db = util::gap_to_capacity_db(m.rate, snr_db);
  m.success_rate = static_cast<double>(successes) / opt.trials;
  m.avg_symbols = successes > 0 ? success_symbols / successes : 0.0;
  return m;
}

void run_trials(int trials, const std::function<void(int)>& body) {
  runtime::DecodeService service(sweep_runtime(trials));
  for (int t = 0; t < trials; ++t)
    service.post([&body, t](runtime::DecodeService::WorkerScope&) { body(t); });
  service.drain();
}

double fixed_rate_throughput(const CodeParams& params, int symbols, double snr_db,
                             int trials, std::uint64_t seed) {
  const PuncturingSchedule schedule(params);
  const std::vector<SymbolId> ids = schedule.prefix(symbols);
  std::vector<std::uint8_t> decoded(static_cast<std::size_t>(trials), 0);

  run_trials(trials, [&](int t) {
    const std::uint64_t s = seed + 0x9E3779B9 * static_cast<std::uint64_t>(t);
    util::Xoshiro256 prng(s ^ 0xFACade);
    const util::BitVec message = prng.random_bits(params.n);

    SpinalEncoder encoder(params, message);
    SpinalDecoder decoder(params);
    channel::AwgnChannel channel(snr_db, s);

    for (const SymbolId& id : ids)
      decoder.add_symbol(id, channel.transmit(encoder.symbol(id)));

    decoded[static_cast<std::size_t>(t)] = decoder.decode().message == message;
  });

  int successes = 0;
  for (const std::uint8_t ok : decoded) successes += ok;
  return (static_cast<double>(params.n) / symbols) *
         (static_cast<double>(successes) / trials);
}

int scaled_trials(int base) {
  int trials = base;
  if (const char* env = std::getenv("SPINAL_BENCH_TRIALS")) {
    const int v = std::atoi(env);
    if (v > 0) trials = v;
  }
  if (const char* full = std::getenv("SPINAL_BENCH_FULL")) {
    if (std::string(full) == "1") trials *= 8;
  }
  return trials;
}

}  // namespace spinal::sim
