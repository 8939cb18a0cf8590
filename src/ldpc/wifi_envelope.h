#pragma once
// The "best envelope of 802.11n LDPC codes" baseline of Fig 8-1: a
// family of (code rate, modulation) pairs, each measured as a fixed-rate
// code; for each SNR the envelope reports the highest goodput across the
// family — mimicking an ideal bit-rate adaptation policy like SoftRate
// sitting on top of the LDPC codes (§8).

#include <cstdint>
#include <memory>
#include <vector>

#include "ldpc/bp_decoder.h"
#include "ldpc/encoder.h"
#include "ldpc/qc_ldpc.h"

namespace spinal::ldpc {

/// One 802.11n-style code (rate, matrix seed) with its RREF encoder and
/// BP decoder: immutable, so one context serves every session and
/// worker thread of a fleet. H must outlive the encoder and decoder
/// (both keep references), so the members are built in declaration
/// order inside one heap-pinned block.
struct LdpcContext {
  ParityMatrix H;
  LdpcEncoder encoder;
  BpDecoder decoder;

  LdpcContext(Rate rate, int bp_iterations, std::uint64_t matrix_seed = kWifiMatrixSeed)
      : H(make_wifi_style_matrix(rate, matrix_seed)),
        encoder(H),
        decoder(H, bp_iterations) {}
};

struct Mcs {
  Rate rate;
  int bits_per_symbol;  // 1 (BPSK), 2 (QPSK), 4 (16-QAM), 6 (64-QAM)
};

class WifiLdpcFamily {
 public:
  explicit WifiLdpcFamily(int bp_iterations = 40);

  /// All 16 rate x modulation combinations, as in 802.11n.
  static std::vector<Mcs> all_mcs();

  /// Information bits per channel symbol for @p mcs (uses the realised
  /// code rate, which can differ from nominal by rank slack).
  double mcs_info_bits_per_symbol(const Mcs& mcs) const;

  /// Fraction of blocks decoded correctly at @p snr_db over @p trials.
  double block_success_rate(const Mcs& mcs, double snr_db, int trials,
                            std::uint64_t seed) const;

  /// Envelope goodput: max over the family of rate x success fraction.
  /// Also reports which MCS won via @p best (optional).
  double envelope_rate(double snr_db, int trials, std::uint64_t seed,
                       Mcs* best = nullptr) const;

 private:
  const LdpcContext& ctx(Rate r) const;

  std::vector<std::unique_ptr<LdpcContext>> contexts_;  // one per Rate
};

}  // namespace spinal::ldpc
