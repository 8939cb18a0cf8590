#pragma once
// Channel front-end for the execution engine: wraps the AWGN, Rayleigh
// and BSC models behind one transmit() call and controls whether the
// receiver is given channel-state information (Fig 8-4 vs Fig 8-5).

#include <complex>
#include <cstdint>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "channel/awgn.h"
#include "channel/bsc.h"
#include "channel/rayleigh.h"

namespace spinal::sim {

enum class ChannelKind {
  kAwgn,         ///< y = x + n
  kRayleighCsi,  ///< y = h x + n, exact h handed to the decoder
  /// y = h x + n; the decoder gets only a unit-magnitude phase
  /// reference h/|h| (carrier sync is standard receiver functionality)
  /// but no amplitude/quality estimate — Fig 8-5's "no detailed or
  /// accurate fading information" robustness regime.
  kRayleighNoCsi,
  /// Binary symmetric channel (§4.1): symbols carry one coded bit on
  /// the real axis (0.0 or 1.0) and each is flipped independently with
  /// the crossover probability. Built via ChannelSim::bsc().
  kBsc,
};

class ChannelSim {
 public:
  /// @param coherence fading coherence time tau in symbols (ignored for AWGN)
  /// Throws std::invalid_argument for kBsc — use bsc() instead (the BSC
  /// is parameterised by a crossover probability, not an SNR).
  ChannelSim(ChannelKind kind, double snr_db, int coherence, std::uint64_t seed);

  /// BSC front-end: transmit() treats each symbol as one coded bit on
  /// the real axis (>= 0.5 reads as 1) and flips it with probability
  /// @p crossover. Pairs with sim::BscSession (sim/spinal_session.h).
  static ChannelSim bsc(double crossover, std::uint64_t seed);

  ChannelKind kind() const noexcept { return kind_; }
  double snr_db() const noexcept { return snr_db_; }

  /// Total complex noise variance sigma^2 (AWGN/Rayleigh); for kBsc the
  /// crossover probability (the analogous receiver-quality hint — the
  /// spinal decoder ignores it either way).
  double noise_variance() const noexcept;

  /// Applies the channel to @p x in place. For kRayleighCsi the
  /// per-symbol coefficients are appended to @p csi_out; otherwise
  /// @p csi_out is left untouched (empty CSI = treat as AWGN).
  void transmit(std::span<std::complex<float>> x,
                std::vector<std::complex<float>>& csi_out);

 private:
  /// The model, held inline: a channel costs its session no allocation.
  using Model = std::variant<channel::AwgnChannel, channel::RayleighChannel,
                             channel::BscChannel>;

  ChannelSim(ChannelKind kind, double snr_db, Model model)
      : kind_(kind), snr_db_(snr_db), model_(std::move(model)) {}
  static Model make_model(ChannelKind kind, double snr_db, int coherence,
                          std::uint64_t seed);

  ChannelKind kind_;
  double snr_db_;
  Model model_;
  std::vector<std::complex<float>> scratch_csi_;
};

}  // namespace spinal::sim
