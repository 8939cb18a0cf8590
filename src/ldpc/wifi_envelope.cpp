#include "ldpc/wifi_envelope.h"

#include "channel/awgn.h"
#include "modem/qam.h"
#include "util/prng.h"

namespace spinal::ldpc {

WifiLdpcFamily::WifiLdpcFamily(int bp_iterations) {
  for (Rate r : {Rate::kHalf, Rate::kTwoThirds, Rate::kThreeQuarters, Rate::kFiveSixths})
    contexts_.push_back(std::make_unique<LdpcContext>(r, bp_iterations));
}

const LdpcContext& WifiLdpcFamily::ctx(Rate r) const {
  return *contexts_[static_cast<int>(r)];
}

std::vector<Mcs> WifiLdpcFamily::all_mcs() {
  std::vector<Mcs> out;
  for (Rate r : {Rate::kHalf, Rate::kTwoThirds, Rate::kThreeQuarters, Rate::kFiveSixths})
    for (int bps : {1, 2, 4, 6}) out.push_back({r, bps});
  return out;
}

double WifiLdpcFamily::mcs_info_bits_per_symbol(const Mcs& mcs) const {
  const LdpcContext& c = ctx(mcs.rate);
  return static_cast<double>(c.encoder.info_bits()) / kWifiBlockBits *
         mcs.bits_per_symbol;
}

double WifiLdpcFamily::block_success_rate(const Mcs& mcs, double snr_db, int trials,
                                          std::uint64_t seed) const {
  const LdpcContext& c = ctx(mcs.rate);
  const modem::QamModem qam(mcs.bits_per_symbol);
  int ok = 0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t s = seed + 0xABCD * static_cast<std::uint64_t>(t);
    util::Xoshiro256 prng(s);
    const util::BitVec info = prng.random_bits(c.encoder.info_bits());
    const util::BitVec cw = c.encoder.encode(info);

    channel::AwgnChannel ch(snr_db, s ^ 0x5A5A);
    auto symbols = qam.modulate(cw);
    ch.apply(symbols);

    std::vector<float> llrs;
    llrs.reserve(cw.size());
    for (const auto& y : symbols) qam.demap_soft(y, ch.noise_variance(), llrs);
    llrs.resize(cw.size());  // drop padding LLRs from the final symbol

    const BpResult r = c.decoder.decode(llrs);
    ok += (r.codeword == cw);
  }
  return static_cast<double>(ok) / trials;
}

double WifiLdpcFamily::envelope_rate(double snr_db, int trials, std::uint64_t seed,
                                     Mcs* best) const {
  double top = 0.0;
  for (const Mcs& mcs : all_mcs()) {
    const double goodput =
        mcs_info_bits_per_symbol(mcs) * block_success_rate(mcs, snr_db, trials, seed);
    if (goodput > top) {
      top = goodput;
      if (best) *best = mcs;
    }
  }
  return top;
}

}  // namespace spinal::ldpc
