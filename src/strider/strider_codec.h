#pragma once
// Strider baseline (§8, [12]): the layered rateless construction of
// Erez, Trott and Wornell instantiated as Gudipati & Katti describe —
// 33 data blocks ("layers"), each protected by a rate-1/5 turbo code
// and QPSK-modulated; every transmitted pass is a pseudo-random
// unit-magnitude linear combination of the 33 layer symbol streams.
// The receiver MRC-combines all received passes, decodes layers
// successively, and cancels decoded layers from the residual (SIC).
//
// Substitution note (DESIGN.md): the authors ported Gudipati's Matlab
// coefficient matrix; we generate deterministic pseudo-random unit-
// modulus coefficients, which preserves the (2/5)*33/L rate staircase
// and the SIC behaviour the comparison depends on.
//
// Each layer carries a 16-bit CRC so the receiver can tell which layers
// decoded (Strider's receiver does the same). A message of
// layers*layer_bits bits is segmented by layer; CRCs ride inside the
// turbo input.

#include <complex>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "modem/qam.h"
#include "turbo/turbo_codec.h"
#include "util/bitvec.h"

namespace spinal::strider {

struct StriderConfig {
  int layers = 33;            ///< paper: "the recommended 33 data blocks"
  int layer_bits = 1530;      ///< message bits per layer (50490 total)
  int max_passes = 27;        ///< paper: "up to 27 passes"
  int turbo_iterations = 8;
  /// SIC design SINR: the per-layer SINR the successive-cancellation
  /// chain needs for the rate-1/5+QPSK turbo to decode (~ -4.5 dB).
  /// The per-pass gain schedule is built so that after M passes the
  /// cumulative energy profile across layers is exponential with decay
  /// beta_star/M — the Erez-Trott-Wornell layered-rateless design that
  /// lets every pass count M = 2..max_passes form a near-"perfect"
  /// layered code, giving the (2/5)*33/L staircase of §8.
  double beta_star = 0.4;
  std::uint64_t seed = 0x57121DE2;

  int message_bits() const noexcept { return layers * layer_bits; }
  int turbo_input_bits() const noexcept { return layer_bits + 32; }  // + CRC-32
};

/// Per-pass per-layer transmit powers g^2[m][k] for m in [0, max_passes):
/// each row sums to 1; cumulative sums follow the ETW exponential
/// profile for the corresponding pass count.
std::vector<std::vector<float>> pass_layer_powers(const StriderConfig& config);

/// Encoder: prepares per-layer QPSK streams once, then emits any prefix
/// of any pass on demand (rateless).
class StriderEncoder {
 public:
  explicit StriderEncoder(const StriderConfig& config);

  int symbols_per_pass() const noexcept { return symbols_per_pass_; }

  /// Loads a message of config.message_bits() bits.
  void load(const util::BitVec& message);

  /// Transmit symbols [begin, end) of pass @p pass.
  void emit(int pass, int begin, int end,
            std::vector<std::complex<float>>& out) const;

  /// Combination coefficient of layer @p k in pass @p m (unit magnitude
  /// / sqrt(layers); deterministic from the config seed).
  std::complex<float> coefficient(int pass, int layer) const;

 private:
  StriderConfig config_;
  turbo::TurboCodec turbo_;
  modem::QamModem qpsk_;
  int symbols_per_pass_;
  std::vector<std::vector<float>> amplitude_;  // sqrt g^2[pass][layer]
  std::vector<std::vector<std::complex<float>>> layer_symbols_;
};

/// Decoder: stores received passes (possibly a partial final pass,
/// enabling the paper's "Strider+" puncturing enhancement), MRC-combines
/// and runs SIC sweeps on demand.
class StriderDecoder {
 public:
  explicit StriderDecoder(const StriderConfig& config);

  int symbols_per_pass() const noexcept { return symbols_per_pass_; }

  /// Appends received symbols in transmission order (pass-major). When
  /// CSI is supplied the symbols are coherently equalised first. Throws
  /// std::invalid_argument, before appending any, unless @p csi is
  /// empty or matches @p y.
  void add_symbols(std::span<const std::complex<float>> y,
                   std::span<const std::complex<float>> csi);

  void set_noise_variance(double nv) noexcept { noise_var_ = nv; }

  /// Runs SIC sweeps over everything received. Returns the message when
  /// every layer's CRC checks out. @p turbo_iterations caps the
  /// per-layer turbo decode (the runtime's effort knob); <= 0 runs the
  /// configured count, bit-identical to the uncapped call.
  std::optional<util::BitVec> decode(int turbo_iterations = 0);

  void reset();

 private:
  StriderConfig config_;
  turbo::TurboCodec turbo_;
  modem::QamModem qpsk_;
  int symbols_per_pass_;
  std::vector<std::vector<float>> power_;      // g^2[pass][layer]
  std::vector<std::vector<float>> amplitude_;  // sqrt of power_
  double noise_var_ = 1.0;

  // Residual received signal, pass-major; decoded layers are subtracted.
  std::vector<std::vector<std::complex<float>>> rx_;
  std::vector<std::vector<float>> inv_noise_;  // per-symbol 1/noise (CSI-aware)
  long total_symbols_ = 0;

  std::vector<bool> layer_done_;
  std::vector<util::BitVec> layer_bits_;
  // Re-encoded QPSK streams of decoded layers, for cancelling them out
  // of symbols that arrive after the layer was decoded.
  std::vector<std::vector<std::complex<float>>> layer_symbol_cache_;

  std::complex<float> coefficient(int pass, int layer) const;
  bool try_layer(int layer, int turbo_iterations);
};

}  // namespace spinal::strider
