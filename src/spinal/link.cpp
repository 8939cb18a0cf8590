#include "spinal/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "modem/qam.h"

namespace spinal {

namespace {

/// Splits a datagram into CRC-sealed blocks of exactly params.n bits
/// (the final payload is zero-padded before its CRC so every block is
/// full-size; a real header would carry the datagram length, which the
/// demo passes out of band).
std::vector<util::BitVec> make_full_blocks(const CodeParams& params,
                                           const std::vector<std::uint8_t>& datagram) {
  const int payload_bits = params.n - 16;
  if (payload_bits <= 0)
    throw std::invalid_argument("LinkSender: params.n must exceed the 16-bit CRC");

  const std::size_t total = datagram.size() * 8;
  const util::BitVec all = util::BitVec::from_bytes(datagram, total);

  std::vector<util::BitVec> blocks;
  std::size_t pos = 0;
  do {
    util::BitVec payload(static_cast<std::size_t>(payload_bits));
    for (int i = 0; i < payload_bits && pos + i < total; ++i)
      payload.set(i, all.get(pos + i));
    pos += payload_bits;
    blocks.push_back(util::crc16_append(payload));
  } while (pos < total);
  return blocks;
}

}  // namespace

// ------------------------------------------------------------- sender

LinkSender::LinkSender(const CodeParams& params,
                       const std::vector<std::uint8_t>& datagram)
    : params_(params), schedule_(params) {
  for (const util::BitVec& block : make_full_blocks(params, datagram))
    encoders_.emplace_back(params_, block);
  next_subpass_.assign(encoders_.size(), 0);
  ack_.decoded.assign(encoders_.size(), false);
}

std::vector<LinkSymbol> LinkSender::next_burst() {
  std::vector<LinkSymbol> burst;
  burst.reserve(encoders_.size() * static_cast<std::size_t>(schedule_.max_subpass_symbols()));
  const int limit = params_.max_passes * schedule_.subpasses_per_pass();
  for (int b = 0; b < block_count(); ++b) {
    if (ack_.decoded[b]) continue;
    if (next_subpass_[b] >= limit) {
      gave_up_ = true;
      continue;
    }
    ids_.clear();
    schedule_.subpass(next_subpass_[b], ids_);
    for (const SymbolId& id : ids_) burst.push_back({b, id, encoders_[b].symbol(id)});
    ++next_subpass_[b];
  }
  symbols_sent_ += static_cast<long>(burst.size());
  return burst;
}

void LinkSender::handle_ack(const AckBitmap& ack) {
  if (ack.decoded.size() != ack_.decoded.size())
    throw std::invalid_argument("LinkSender::handle_ack: bitmap size mismatch");
  for (std::size_t b = 0; b < ack.decoded.size(); ++b)
    ack_.decoded[b] = ack_.decoded[b] || ack.decoded[b];
}

// ----------------------------------------------------------- receiver

LinkReceiver::LinkReceiver(const CodeParams& params, int block_count,
                           const AttemptSchedule& schedule)
    : params_(params) {
  decoders_.reserve(block_count);
  for (int b = 0; b < block_count; ++b) decoders_.emplace_back(params_);
  blocks_.assign(static_cast<std::size_t>(block_count), Block(schedule));
  due_.reserve(static_cast<std::size_t>(block_count));
}

bool LinkReceiver::receive(const LinkSymbol& symbol, std::complex<float> csi) {
  check_block(symbol.block);
  // Checked here, not when a claimed block's buffer is applied: a bad
  // symbol must not reach release_block().
  if (symbol.id.spine_index < 0 || symbol.id.spine_index >= params_.spine_length())
    throw std::out_of_range("LinkReceiver::receive: spine index out of range");
  Block& blk = blocks_[symbol.block];
  if (blk.decoded) {  // already ACKed; stale symbol
    ++stale_;
    return false;
  }
  // An erasure (the decoder would drop it too): it must neither switch
  // the capacity gate off as fading CSI nor make its block due again.
  if (modem::non_finite(symbol.value, csi)) return false;
  fading_ = fading_ || csi != std::complex<float>{1.0f, 0.0f};
  blk.fresh = true;
  if (blk.claimed) {
    blk.pending.emplace_back(symbol, csi);
  } else {
    decoders_[symbol.block].add_symbol(symbol.id, symbol.value, csi);
    blk.dirty = true;
  }
  return true;
}

AckBitmap LinkReceiver::make_ack() {
  for (int b : pause()) {
    claim_block(b).decode_with(ws_, scratch_);
    complete_block(b, scratch_.message, scratch_.path_cost);
    release_block(b);
  }
  return current_ack();
}

std::span<const int> LinkReceiver::pause() {
  const double snr = params_.power / noise_estimate();
  gate_ = fading_ ? 0 : AttemptSchedule::awgn_gate(params_.n, snr);
  due_.clear();
  for (int b = 0; b < static_cast<int>(blocks_.size()); ++b)
    if (blocks_[b].fresh && attempt_due(b)) due_.push_back(b);
  return due_;
}

bool LinkReceiver::attempt_due(int b) {
  Block& blk = blocks_[b];
  if (blk.fresh) {
    blk.fresh = false;
    ++blk.bursts;
  }
  if (blk.decoded || blk.claimed || !blk.dirty) return false;
  const auto symbols = static_cast<std::int64_t>(decoders_[b].symbols_received());
  return blk.schedule.due(blk.bursts, symbols, gate_);
}

AckBitmap LinkReceiver::current_ack() const {
  AckBitmap ack;
  ack.decoded.reserve(blocks_.size());
  for (const Block& blk : blocks_) ack.decoded.push_back(blk.decoded);
  return ack;
}

void LinkReceiver::check_block(int b) const {
  if (b < 0 || b >= static_cast<int>(decoders_.size()))
    throw std::out_of_range("LinkReceiver: bad block index");
}

bool LinkReceiver::block_decoded(int b) const {
  check_block(b);
  return blocks_[b].decoded;
}

bool LinkReceiver::block_dirty(int b) const {
  check_block(b);
  return blocks_[b].dirty && !blocks_[b].decoded;
}

const SpinalDecoder& LinkReceiver::claim_block(int b) {
  check_block(b);
  blocks_[b].dirty = false;
  blocks_[b].claimed = true;
  return decoders_[b];
}

bool LinkReceiver::complete_block(int b, const util::BitVec& candidate,
                                  std::optional<double> path_cost) {
  check_block(b);
  ++attempts_;
  Block& blk = blocks_[b];
  if (blk.decoded) return false;  // stale completion; block already ACKed
  const std::size_t symbols = decoders_[b].symbols_received();
  if (path_cost && symbols > 0) blk.noise = *path_cost / static_cast<double>(symbols);
  if (!util::crc16_check(candidate)) return false;
  blk.decoded = true;
  blk.message = candidate;
  return true;
}

bool LinkReceiver::release_block(int b) {
  check_block(b);
  Block& blk = blocks_[b];
  blk.claimed = false;
  if (blk.pending.empty()) return false;
  if (blk.decoded) {
    stale_ += blk.pending.size();
  } else {
    for (const auto& [sym, csi] : blk.pending)
      decoders_[b].add_symbol(sym.id, sym.value, csi);
    blk.dirty = true;
  }
  blk.pending.clear();
  return attempt_due(b);
}

double LinkReceiver::noise_estimate() const {
  noise_.clear();
  for (const Block& blk : blocks_)
    if (!std::isnan(blk.noise)) noise_.push_back(blk.noise);
  if (noise_.empty()) return 0.0;
  // The lower median: with an even count, the smaller middle sample.
  const auto mid = noise_.begin() + static_cast<std::ptrdiff_t>((noise_.size() - 1) / 2);
  std::nth_element(noise_.begin(), mid, noise_.end());
  return *mid;
}

std::optional<std::vector<std::uint8_t>> LinkReceiver::datagram() const {
  for (const Block& blk : blocks_)
    if (!blk.decoded) return std::nullopt;

  util::BitVec all(0);
  for (const Block& blk : blocks_) {
    const std::size_t payload = blk.message.size() - 16;
    for (std::size_t i = 0; i < payload; ++i)
      all.append_bits(1, blk.message.get(i) ? 1u : 0u);
  }
  // Zero-padding of the final payload survives here; the caller trims
  // to the datagram length carried in the (out-of-band) header.
  return all.to_bytes();
}

}  // namespace spinal
