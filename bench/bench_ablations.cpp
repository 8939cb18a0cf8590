// Ablation benches for the design choices DESIGN.md calls out:
//
//   A. hash function choice (§7.1: Salsa20 vs lookup3 vs one-at-a-time
//      showed "no discernible difference in performance")
//   B. constellation shaping (§4.6: uniform vs truncated Gaussian show
//      no significant difference at finite n)
//   C. Theorem 1's achievable-rate bound vs the measured linear-time
//      decoder (§4.6 / Appendix A)
//   D. approximate (bubble) vs exact ML decoding on a tiny code
//   E. the BSC side of the construction: rate vs 1 - H(p) (§4.6)

#include "common.h"
#include "channel/bsc.h"
#include "sim/spinal_session.h"
#include "spinal/theory.h"
#include "util/prng.h"

using namespace spinal;

namespace {

double spinal_rate(const CodeParams& p, double snr, int trials) {
  sim::SweepOptions opt;
  opt.trials = trials;
  opt.attempt_growth = 1.04;
  return sim::measure_rate([&] { return std::make_unique<sim::SpinalSession>(p); },
                           snr, opt)
      .rate;
}

/// Rateless BSC run: passes until decoded; returns bits/channel-use.
/// Trials run through sim::run_trials; per-trial slots + in-order
/// reduction keep the result identical at any thread count.
double bsc_rate(double p_flip, int trials, std::uint64_t seed) {
  CodeParams p;
  p.n = 192;
  p.c = 1;
  p.B = 256;
  p.max_passes = 64;
  struct Outcome {
    long bits = 0;
    bool ok = false;
  };
  std::vector<Outcome> outcomes(trials);
  sim::run_trials(trials, [&](int t) {
    util::Xoshiro256 prng(seed + t);
    const util::BitVec msg = prng.random_bits(p.n);
    const BscSpinalEncoder enc(p, msg);
    BscSpinalDecoder dec(p);
    channel::BscChannel ch(p_flip, seed ^ (t * 977));
    const PuncturingSchedule sched(p);
    long bits = 0;
    bool ok = false;
    for (int sp = 0; sp < p.max_passes * sched.subpasses_per_pass() && !ok; ++sp) {
      for (const SymbolId& id : sched.subpass(sp)) {
        dec.add_symbol(id, ch.transmit(enc.symbol(id)));
        ++bits;
      }
      if ((sp + 1) % sched.subpasses_per_pass() == 0)
        ok = (dec.decode().message == msg);
    }
    outcomes[t] = {bits, ok};
  });
  long sent = 0, decoded = 0;
  for (const Outcome& out : outcomes) {
    sent += out.bits;
    if (out.ok) decoded += p.n;
  }
  return static_cast<double>(decoded) / sent;
}

}  // namespace

int main() {
  benchutil::banner("design-choice ablations",
                    "§7.1 hash choice, §4.6 shaping/Theorem-1/BSC, §4.3 ML");
  const int trials = benchutil::trials(3);

  // ---- A: hash function choice ----
  std::printf("# A. hash function (expect: near-identical rates, §7.1)\n");
  std::printf("snr_db,one_at_a_time,lookup3,salsa20\n");
  for (double snr : {0.0, 10.0, 20.0}) {
    std::printf("%.0f", snr);
    for (auto kind : {hash::Kind::kOneAtATime, hash::Kind::kLookup3,
                      hash::Kind::kSalsa20}) {
      CodeParams p;
      p.n = 256;
      p.hash_kind = kind;
      std::printf(",%.3f", spinal_rate(p, snr, trials));
    }
    std::printf("\n");
  }

  // ---- B: uniform vs truncated Gaussian constellation ----
  std::printf("\n# B. constellation shaping (expect: no significant "
              "difference at finite n, §4.6)\n");
  std::printf("snr_db,uniform,trunc_gaussian_b2\n");
  for (double snr : {0.0, 10.0, 20.0, 30.0}) {
    CodeParams u, g;
    u.n = g.n = 256;
    g.map = modem::MapKind::kTruncatedGaussian;
    std::printf("%.0f,%.3f,%.3f\n", snr, spinal_rate(u, snr, trials),
                spinal_rate(g, snr, trials));
  }

  // ---- C: Theorem 1 bound vs measured ----
  std::printf("\n# C. Theorem 1 achievable-rate bound (uniform map, c=6) vs "
              "measured linear-time decoder\n");
  std::printf("snr_db,capacity,theorem1_bound,measured,min_passes_bound\n");
  for (double snr : {0.0, 5.0, 10.0, 15.0, 20.0}) {
    CodeParams p;
    p.n = 256;
    std::printf("%.0f,%.3f,%.3f,%.3f,%d\n", snr,
                util::awgn_capacity(util::db_to_lin(snr)),
                theory::theorem1_rate_bound(6, snr), spinal_rate(p, snr, trials),
                theory::theorem1_min_passes(4, 6, snr));
  }

  // ---- D: bubble decoder vs exact ML ----
  std::printf("\n# D. bubble (B=16,d=1) vs exact ML (d=n/k) on n=12, k=2: "
              "fraction decoded over 40 one-pass trials at 4 dB\n");
  {
    int ok_bubble = 0, ok_ml = 0;
    for (int variant = 0; variant < 2; ++variant) {
      CodeParams p;
      p.n = 12;
      p.k = 2;
      p.c = 6;
      p.tail_symbols = 2;
      p.puncture_ways = 1;
      if (variant == 0) {
        p.B = 16;
        p.d = 1;
      } else {
        p.B = 64;
        p.d = 6;  // full tree: exact ML
      }
      const int n_trials = benchutil::trials(40);
      std::vector<std::uint8_t> decoded(n_trials, 0);
      sim::run_trials(n_trials, [&](int t) {
        util::Xoshiro256 prng(55 + t);
        const util::BitVec msg = prng.random_bits(p.n);
        const SpinalEncoder enc(p, msg);
        SpinalDecoder dec(p);
        channel::AwgnChannel ch(4.0, 1000 + t);
        const PuncturingSchedule sched(p);
        for (int sp = 0; sp < 2; ++sp)
          for (const SymbolId& id : sched.subpass(sp))
            dec.add_symbol(id, ch.transmit(enc.symbol(id)));
        decoded[t] = (dec.decode().message == msg);
      });
      int ok = 0;
      for (const std::uint8_t x : decoded) ok += x;
      (variant == 0 ? ok_bubble : ok_ml) = ok;
    }
    std::printf("bubble=%d,ml=%d (expect: bubble within a trial or two of ML)\n",
                ok_bubble, ok_ml);
  }

  // ---- E: BSC rate vs capacity ----
  std::printf("\n# E. BSC operation: rate vs capacity 1-H(p) (§4.6)\n");
  std::printf("crossover_p,capacity,measured,fraction\n");
  for (double pf : {0.01, 0.05, 0.10, 0.20}) {
    const double cap = util::bsc_capacity(pf);
    const double rate = bsc_rate(pf, trials, 0xB5C0);
    std::printf("%.2f,%.3f,%.3f,%.2f\n", pf, cap, rate, rate / cap);
  }

  return 0;
}
