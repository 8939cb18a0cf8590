// BSC demo: spinal codes over a bit-flip channel (§3.3's trivial c=1
// mapping, §4.1's Hamming metric). The same construction that handles
// AWGN I/Q symbols handles a binary channel — only the constellation
// map and branch metric change.
//
// Run: ./build/examples/bsc_link [crossover_probability]

#include <cstdio>
#include <cstdlib>

#include "channel/bsc.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "util/math.h"
#include "util/prng.h"

using namespace spinal;

int main(int argc, char** argv) {
  const double p_flip = argc > 1 ? std::atof(argv[1]) : 0.05;

  CodeParams params;
  params.n = 128;
  params.c = 1;  // one coded bit per channel use
  params.B = 128;
  params.max_passes = 64;

  const double cap = util::bsc_capacity(p_flip);
  std::printf("spinal over BSC(p=%.3f): capacity %.3f bits/use\n", p_flip, cap);

  util::Xoshiro256 prng(99);
  const util::BitVec message = prng.random_bits(params.n);

  const BscSpinalEncoder encoder(params, message);
  BscSpinalDecoder decoder(params);
  channel::BscChannel channel(p_flip, 0xB5C);
  const PuncturingSchedule schedule(params);

  // Rateless loop: stream subpasses, attempt a decode after each pass.
  long bits_sent = 0;
  for (int sp = 0; sp < params.max_passes * schedule.subpasses_per_pass(); ++sp) {
    for (const SymbolId& id : schedule.subpass(sp)) {
      decoder.add_symbol(id, channel.transmit(encoder.symbol(id)));
      ++bits_sent;
    }
    if ((sp + 1) % schedule.subpasses_per_pass() != 0) continue;

    const DecodeResult r = decoder.decode();
    if (r.message == message) {
      const double rate = static_cast<double>(params.n) / bits_sent;
      std::printf("decoded after %ld coded bits: rate %.3f bits/use "
                  "(%.0f%% of capacity), path cost %.0f flipped bits\n",
                  bits_sent, rate, 100 * rate / cap, r.path_cost);
      return 0;
    }
  }
  std::printf("gave up after %ld coded bits (try a smaller crossover)\n", bits_sent);
  return 1;
}
