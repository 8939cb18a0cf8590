#include "spinal/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "channel/awgn.h"
#include "spinal/cost_model.h"
#include "spinal/encoder.h"
#include "util/crc.h"
#include "util/prng.h"

namespace spinal {
namespace {

CodeParams link_params() {
  CodeParams p;
  p.n = 256;
  p.B = 64;
  p.max_passes = 32;
  return p;
}

std::vector<std::uint8_t> random_datagram(std::size_t bytes, std::uint64_t seed) {
  util::Xoshiro256 prng(seed);
  std::vector<std::uint8_t> out(bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(prng.next_u64());
  return out;
}

/// Drives a full sender/receiver exchange over AWGN at @p snr_db.
/// Returns the symbols used, or -1 if the link gave up.
long run_link(const CodeParams& p, const std::vector<std::uint8_t>& datagram,
              double snr_db, std::uint64_t seed,
              std::vector<std::uint8_t>* out = nullptr) {
  LinkSender sender(p, datagram);
  LinkReceiver receiver(p, sender.block_count());
  channel::AwgnChannel channel(snr_db, seed);

  while (!sender.done() && !sender.gave_up()) {
    for (LinkSymbol s : sender.next_burst()) {
      s.value = channel.transmit(s.value);
      receiver.receive(s);
    }
    sender.handle_ack(receiver.make_ack());
  }
  if (!sender.done()) return -1;
  if (out) {
    const auto d = receiver.datagram();
    if (!d) return -1;
    *out = *d;
  }
  return sender.symbols_sent();
}

TEST(Link, SingleBlockDatagramRoundTrip) {
  const CodeParams p = link_params();
  const auto datagram = random_datagram(20, 1);  // 160 bits, one block
  std::vector<std::uint8_t> received;
  const long symbols = run_link(p, datagram, 15.0, 42, &received);
  ASSERT_GT(symbols, 0);
  received.resize(datagram.size());  // strip block padding
  EXPECT_EQ(received, datagram);
}

TEST(Link, MultiBlockDatagramRoundTrip) {
  const CodeParams p = link_params();
  const auto datagram = random_datagram(200, 2);  // 1600 bits, 7 blocks
  LinkSender sender(p, datagram);
  EXPECT_EQ(sender.block_count(), 7);  // ceil(1600 / 240)
  std::vector<std::uint8_t> received;
  const long symbols = run_link(p, datagram, 15.0, 43, &received);
  ASSERT_GT(symbols, 0);
  received.resize(datagram.size());
  EXPECT_EQ(received, datagram);
}

TEST(Link, UsesFewerSymbolsAtHigherSnr) {
  const CodeParams p = link_params();
  const auto datagram = random_datagram(100, 3);
  const long high = run_link(p, datagram, 25.0, 44);
  const long low = run_link(p, datagram, 2.0, 44);
  ASSERT_GT(high, 0);
  ASSERT_GT(low, 0);
  EXPECT_LT(high, low);
}

TEST(Link, BlocksAckIndependently) {
  // After one noiseless burst every block should decode at once.
  const CodeParams p = link_params();
  const auto datagram = random_datagram(90, 4);  // 3 blocks
  LinkSender sender(p, datagram);
  LinkReceiver receiver(p, sender.block_count());
  // Enough noiseless bursts to cover a full pass of every block.
  for (int round = 0; round < 8; ++round)
    for (const LinkSymbol& s : sender.next_burst()) receiver.receive(s);
  const AckBitmap ack = receiver.make_ack();
  EXPECT_TRUE(ack.all_decoded());
}

TEST(Link, SenderStopsTransmittingAckedBlocks) {
  const CodeParams p = link_params();
  const auto datagram = random_datagram(90, 5);  // 3 blocks
  LinkSender sender(p, datagram);
  AckBitmap partial;
  partial.decoded = {true, false, true};
  sender.handle_ack(partial);
  for (const LinkSymbol& s : sender.next_burst()) EXPECT_EQ(s.block, 1);
}

TEST(Link, GivesUpAtHopelessSnr) {
  CodeParams p = link_params();
  p.max_passes = 3;
  const auto datagram = random_datagram(50, 6);
  const long r = run_link(p, datagram, -20.0, 45);
  EXPECT_EQ(r, -1);
}

TEST(Link, AckSizeMismatchThrows) {
  const CodeParams p = link_params();
  LinkSender sender(p, random_datagram(90, 7));
  AckBitmap wrong;
  wrong.decoded = {true};
  EXPECT_THROW(sender.handle_ack(wrong), std::invalid_argument);
}

TEST(Link, ReceiverRejectsBadBlockIndex) {
  const CodeParams p = link_params();
  LinkReceiver receiver(p, 2);
  LinkSymbol s{5, {0, 0}, {0.f, 0.f}};
  EXPECT_THROW(receiver.receive(s), std::out_of_range);
}

TEST(Link, DatagramUnavailableUntilAllBlocksDecode) {
  const CodeParams p = link_params();
  LinkReceiver receiver(p, 3);
  EXPECT_FALSE(receiver.datagram().has_value());
}

TEST(Link, TinyNRejects) {
  CodeParams p = link_params();
  p.n = 16;  // no room for CRC
  EXPECT_THROW(LinkSender(p, random_datagram(10, 8)), std::invalid_argument);
}

TEST(Link, BurstAfterAllBlocksAckedIsEmpty) {
  // The mux keeps polling senders it multiplexes; a fully-ACKed sender
  // must produce nothing (and not trip its give-up logic).
  const CodeParams p = link_params();
  LinkSender sender(p, random_datagram(90, 10));  // 3 blocks
  AckBitmap all;
  all.decoded = {true, true, true};
  sender.handle_ack(all);
  EXPECT_TRUE(sender.done());
  const long sent_before = sender.symbols_sent();
  EXPECT_TRUE(sender.next_burst().empty());
  EXPECT_TRUE(sender.next_burst().empty());
  EXPECT_EQ(sender.symbols_sent(), sent_before);
  EXPECT_FALSE(sender.gave_up());
}

TEST(Link, FeedbackForAlreadyAckedBlockIsIdempotent) {
  const CodeParams p = link_params();
  LinkSender sender(p, random_datagram(90, 11));  // 3 blocks
  AckBitmap partial;
  partial.decoded = {true, false, false};
  sender.handle_ack(partial);
  sender.handle_ack(partial);  // duplicate feedback: no state change
  for (const LinkSymbol& s : sender.next_burst()) EXPECT_NE(s.block, 0);
  // An ACK never un-decodes: a later bitmap with the bit cleared (e.g.
  // a reordered frame) must not resurrect block 0.
  AckBitmap stale;
  stale.decoded = {false, false, true};
  sender.handle_ack(stale);
  for (const LinkSymbol& s : sender.next_burst()) EXPECT_EQ(s.block, 1);
}

TEST(Link, MuxEntryPointsClaimAndComplete) {
  // Asserts f32-exact results.
  if (resolve_cost_precision(CostPrecision::kFloat32) !=
      CostPrecision::kFloat32)
    GTEST_SKIP() << "SPINAL_COST_PRECISION override replaces f32";
  // The non-blocking receiver surface the runtime's SessionMux drives:
  // claim a dirty block, decode it with caller scratch, report back.
  const CodeParams p = link_params();
  const auto datagram = random_datagram(20, 12);  // one block
  LinkSender sender(p, datagram);
  LinkReceiver receiver(p, sender.block_count());

  EXPECT_FALSE(receiver.block_dirty(0));
  EXPECT_FALSE(receiver.block_decoded(0));
  EXPECT_FALSE(receiver.current_ack().all_decoded());

  for (int round = 0; round < 4; ++round)
    for (const LinkSymbol& s : sender.next_burst()) receiver.receive(s);
  ASSERT_TRUE(receiver.block_dirty(0));

  const SpinalDecoder& dec = receiver.claim_block(0);
  EXPECT_FALSE(receiver.block_dirty(0));  // claim consumes dirtiness

  detail::DecodeWorkspace ws;
  DecodeResult out;
  dec.decode_with(ws, out);
  ASSERT_TRUE(receiver.complete_block(0, out.message));
  EXPECT_TRUE(receiver.block_decoded(0));
  EXPECT_TRUE(receiver.current_ack().all_decoded());
  // A stale completion for an already-ACKed block is refused.
  EXPECT_FALSE(receiver.complete_block(0, out.message));
  // Garbage candidates fail their CRC.
  LinkReceiver fresh(p, 1);
  util::BitVec junk(static_cast<std::size_t>(p.n));
  EXPECT_FALSE(fresh.complete_block(0, junk));
  EXPECT_FALSE(fresh.block_decoded(0));

  EXPECT_THROW(receiver.claim_block(7), std::out_of_range);
  EXPECT_THROW(receiver.complete_block(-1, out.message), std::out_of_range);
}

TEST(Link, DecodeWithBeamOverrideStillPassesCrc) {
  // The adaptive runtime shrinks B per attempt; at high SNR a narrowed
  // search must still find the transmitted block.
  const CodeParams p = link_params();
  const auto datagram = random_datagram(20, 13);
  LinkSender sender(p, datagram);
  LinkReceiver receiver(p, sender.block_count());
  channel::AwgnChannel channel(20.0, 99);
  for (int round = 0; round < 8; ++round)
    for (LinkSymbol s : sender.next_burst()) {
      s.value = channel.transmit(s.value);
      receiver.receive(s);
    }
  const SpinalDecoder& dec = receiver.claim_block(0);
  detail::DecodeWorkspace ws;
  DecodeResult out;
  dec.decode_with(ws, out, /*beam_width=*/8);
  EXPECT_TRUE(util::crc16_check(out.message));
}

TEST(Link, GateSurvivesOneCorruptedBlock) {
  // One far-off symbol in block 0 blows up that block's path cost per
  // symbol. The link's noise estimate is a median over its blocks, so
  // the gate must stay as loose as the noise allows: every other block
  // ACKs at the same burst as in a loop that never gates.
  const CodeParams p = link_params();
  const auto datagram = random_datagram(256, 21);
  constexpr double kSnrDb = 10.0;
  struct Run {
    std::vector<int> acked_at;  ///< burst of each block's ACK; -1: never
    double noise = 0;
    std::int64_t attempts = 0;
  };
  const auto run = [&](bool gated) {
    LinkSender sender(p, datagram);
    const int blocks = sender.block_count();
    LinkReceiver rx(p, blocks);
    // A channel per block: its noise does not depend on the other
    // blocks' ACKs, so both loops feed every block the same symbols.
    std::vector<channel::AwgnChannel> channels;
    for (int b = 0; b < blocks; ++b)
      channels.emplace_back(kSnrDb, 300 + static_cast<std::uint64_t>(b));
    Run r;
    r.acked_at.assign(static_cast<std::size_t>(blocks), -1);
    bool corrupted = false;
    DecodeResult out;
    for (int burst = 0; !sender.done() && !sender.gave_up(); ++burst) {
      for (LinkSymbol s : sender.next_burst()) {
        s.value = channels[static_cast<std::size_t>(s.block)].transmit(s.value);
        if (s.block == 0 && !corrupted) {
          s.value = {3000.0f, 3000.0f};
          corrupted = true;
        }
        rx.receive(s);
      }
      if (gated) {
        rx.make_ack();
      } else {
        // No path cost reported: no estimate, so no gate.
        for (int b = 0; b < blocks; ++b) {
          if (!rx.block_dirty(b)) continue;
          rx.claim_block(b).decode_into(out);
          rx.complete_block(b, out.message);
          rx.release_block(b);
        }
      }
      const AckBitmap ack = rx.current_ack();
      for (int b = 0; b < blocks; ++b)
        if (ack.decoded[b] && r.acked_at[b] < 0) r.acked_at[b] = burst;
      sender.handle_ack(ack);
    }
    r.noise = rx.noise_estimate();
    r.attempts = rx.attempts();
    return r;
  };
  const Run gated = run(true);
  const Run ungated = run(false);
  ASSERT_EQ(gated.acked_at.size(), 9u);
  for (std::size_t b = 1; b < gated.acked_at.size(); ++b) {
    EXPECT_GE(gated.acked_at[b], 0) << b;
    EXPECT_EQ(gated.acked_at[b], ungated.acked_at[b]) << b;
  }
  // The estimate sits near sigma^2 = 0.1, not near block 0's cost.
  EXPECT_GT(gated.noise, 0.0);
  EXPECT_LT(gated.noise, 0.2);
  EXPECT_EQ(ungated.noise, 0.0);
  EXPECT_LT(gated.attempts, ungated.attempts);  // the gate fired
}

TEST(Link, NonFiniteSymbolIsAnErasure) {
  // A NaN CSI or an infinite value says nothing about the symbol sent:
  // receive() drops it, so it neither turns the capacity gate off (as
  // fading CSI would) nor makes its block due again. The link then runs
  // exactly as without it: same attempts, bursts and datagram.
  const CodeParams p = link_params();
  const auto datagram = random_datagram(256, 23);
  struct Run {
    std::int64_t attempts = 0;
    long symbols = 0;
    std::optional<std::vector<std::uint8_t>> datagram;
  };
  const auto run = [&](bool inject) {
    LinkSender sender(p, datagram);
    LinkReceiver rx(p, sender.block_count());
    channel::AwgnChannel channel(10.0, 24);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    for (int burst = 0; !sender.done() && !sender.gave_up(); ++burst) {
      std::vector<LinkSymbol> symbols = sender.next_burst();
      for (LinkSymbol& s : symbols) {
        s.value = channel.transmit(s.value);
        rx.receive(s);
      }
      if (inject && (burst == 3 || burst == 5)) {
        LinkSymbol s = symbols.front();
        EXPECT_FALSE(rx.block_decoded(s.block));
        const std::complex<float> csi =
            burst == 3 ? std::complex<float>{nan, 0.0f}
                       : std::complex<float>{1.0f, 0.0f};
        if (burst == 5) s.value = {inf, 0.0f};
        EXPECT_FALSE(rx.receive(s, csi));
      }
      sender.handle_ack(rx.make_ack());
    }
    EXPECT_TRUE(sender.done());
    return Run{rx.attempts(), sender.symbols_sent(), rx.datagram()};
  };
  const Run clean = run(false);
  const Run erased = run(true);
  ASSERT_TRUE(clean.datagram.has_value());
  ASSERT_GE(clean.datagram->size(), datagram.size());  // zero-padded tail
  EXPECT_TRUE(std::equal(datagram.begin(), datagram.end(),
                         clean.datagram->begin()));
  EXPECT_EQ(erased.attempts, clean.attempts);
  EXPECT_EQ(erased.symbols, clean.symbols);
  EXPECT_EQ(erased.datagram, clean.datagram);
}

TEST(Link, ClaimedBlockBuffersUntilRelease) {
  // Symbols for a claimed block wait for release_block(), which then
  // says whether they make an attempt due.
  const CodeParams p = link_params();
  LinkSender sender(p, random_datagram(20, 22));  // one block
  LinkReceiver rx(p, 1);
  for (const LinkSymbol& s : sender.next_burst()) rx.receive(s);
  ASSERT_EQ(rx.pause().size(), 1u);
  const SpinalDecoder& dec = rx.claim_block(0);
  const std::size_t before = dec.symbols_received();
  for (const LinkSymbol& s : sender.next_burst()) EXPECT_TRUE(rx.receive(s));
  EXPECT_EQ(dec.symbols_received(), before);  // buffered, store untouched
  EXPECT_TRUE(rx.pause().empty());             // claimed: check deferred
  EXPECT_TRUE(rx.release_block(0));            // the deferred attempt is due
  EXPECT_GT(dec.symbols_received(), before);
  EXPECT_TRUE(rx.block_dirty(0));
  EXPECT_FALSE(rx.release_block(0));  // nothing buffered
}

TEST(Link, ClaimedBlockRejectsBadSymbolAtReceive) {
  // A symbol whose spine index is out of range is refused at receive(),
  // changing nothing, whether or not its block is claimed — so it never
  // reaches the buffer that release_block() applies.
  const CodeParams p = link_params();
  LinkSender sender(p, random_datagram(20, 23));  // one block
  LinkReceiver rx(p, 1);
  const std::vector<LinkSymbol> first = sender.next_burst();
  for (const LinkSymbol& s : first) rx.receive(s);
  const SpinalDecoder& dec = rx.claim_block(0);
  const std::size_t before = dec.symbols_received();

  LinkSymbol bad = first.front();
  bad.id.spine_index = p.spine_length();
  LinkSymbol negative = first.front();
  negative.id.spine_index = -1;
  ASSERT_TRUE(rx.receive(first[0]));  // buffered
  EXPECT_THROW(rx.receive(bad), std::out_of_range);
  EXPECT_THROW(rx.receive(negative), std::out_of_range);
  ASSERT_TRUE(rx.receive(first[1]));  // buffered
  EXPECT_EQ(dec.symbols_received(), before);

  EXPECT_NO_THROW(rx.release_block(0));
  EXPECT_EQ(dec.symbols_received(), before + 2);  // each buffered symbol once
  EXPECT_NO_THROW(rx.release_block(0));
  EXPECT_EQ(dec.symbols_received(), before + 2);

  // Unclaimed: the store is untouched as well.
  EXPECT_THROW(rx.receive(bad), std::out_of_range);
  EXPECT_EQ(dec.symbols_received(), before + 2);
}

TEST(Link, NegativeOrdinalsAreOrdinalsModTwoToThe32) {
  // Pinned contract for hostile ordinals: SymbolId::ordinal is an
  // int32, and every end takes it mod 2^32 — the encoder and the decoder
  // both draw RNG index static_cast<uint32_t>(ordinal) — so -1 is
  // ordinal 2^32 - 1 and INT32_MIN is 2^31, ordinary observations of
  // their spine values. A decoder and a link receiver fed nothing but
  // such symbols decode the block.
  const CodeParams p = link_params();
  const auto datagram = random_datagram(static_cast<std::size_t>(p.n - 16) / 8, 31);
  const util::BitVec block =
      util::crc16_append(util::BitVec::from_bytes(datagram, datagram.size() * 8));
  const SpinalEncoder enc(p, block);
  constexpr std::int32_t kOrdinals[] = {-1, std::numeric_limits<std::int32_t>::min()};
  // The two draws are distinct, and distinct from the first ordinals.
  const SymbolId first{0, 0}, minus_one{0, kOrdinals[0]}, most_negative{0, kOrdinals[1]};
  EXPECT_NE(enc.symbol(minus_one), enc.symbol(first));
  EXPECT_NE(enc.symbol(most_negative), enc.symbol(first));
  EXPECT_NE(enc.symbol(minus_one), enc.symbol(most_negative));

  SpinalDecoder dec(p);
  LinkReceiver rx(p, 1);
  for (const std::int32_t ordinal : kOrdinals) {
    for (int s = 0; s < p.spine_length(); ++s) {
      const SymbolId id{s, ordinal};
      dec.add_symbol(id, enc.symbol(id));
      EXPECT_TRUE(rx.receive(LinkSymbol{0, id, enc.symbol(id)}));
    }
  }
  EXPECT_EQ(dec.decode().message, block);
  ASSERT_TRUE(rx.make_ack().all_decoded());
  const auto received = rx.datagram();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, datagram);
}

}  // namespace
}  // namespace spinal
