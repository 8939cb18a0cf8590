#include "sim/channel_sim.h"

#include <stdexcept>

namespace spinal::sim {

ChannelSim::Model ChannelSim::make_model(ChannelKind kind, double snr_db,
                                         int coherence, std::uint64_t seed) {
  if (kind == ChannelKind::kAwgn) return channel::AwgnChannel(snr_db, seed);
  if (kind == ChannelKind::kBsc)
    throw std::invalid_argument(
        "ChannelSim: kBsc takes a crossover probability, not an SNR — "
        "construct it with ChannelSim::bsc(crossover, seed)");
  return channel::RayleighChannel(snr_db, coherence, seed);
}

ChannelSim::ChannelSim(ChannelKind kind, double snr_db, int coherence,
                       std::uint64_t seed)
    : ChannelSim(kind, snr_db, make_model(kind, snr_db, coherence, seed)) {}

ChannelSim ChannelSim::bsc(double crossover, std::uint64_t seed) {
  return ChannelSim(ChannelKind::kBsc, 0.0, channel::BscChannel(crossover, seed));
}

double ChannelSim::noise_variance() const noexcept {
  if (const auto* bsc = std::get_if<channel::BscChannel>(&model_)) return bsc->crossover();
  if (const auto* awgn = std::get_if<channel::AwgnChannel>(&model_))
    return awgn->noise_variance();
  return std::get_if<channel::RayleighChannel>(&model_)->noise_variance();
}

void ChannelSim::transmit(std::span<std::complex<float>> x,
                          std::vector<std::complex<float>>& csi_out) {
  switch (kind_) {
    case ChannelKind::kAwgn:
      std::get_if<channel::AwgnChannel>(&model_)->apply(x);
      break;
    case ChannelKind::kRayleighCsi:
      std::get_if<channel::RayleighChannel>(&model_)->apply(x, csi_out);
      break;
    case ChannelKind::kRayleighNoCsi: {
      scratch_csi_.clear();
      std::get_if<channel::RayleighChannel>(&model_)->apply(x, scratch_csi_);
      // Hand back only the phase: the decoder stays carrier-coherent
      // but must treat the amplitude as if the channel were AWGN.
      for (const auto& h : scratch_csi_) {
        const float mag = std::abs(h);
        csi_out.push_back(mag > 1e-9f ? h / mag : std::complex<float>{1.0f, 0.0f});
      }
      break;
    }
    case ChannelKind::kBsc: {
      channel::BscChannel& bsc = *std::get_if<channel::BscChannel>(&model_);
      for (auto& v : x) {
        const std::uint8_t bit = v.real() >= 0.5f ? 1 : 0;
        v = {static_cast<float>(bsc.transmit(bit)), 0.0f};
      }
      break;
    }
  }
}

}  // namespace spinal::sim
