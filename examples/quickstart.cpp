// Quickstart: encode one message with a spinal code, stream it through
// a simulated AWGN channel, and watch the rateless decoder lock on.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart [snr_db]

#include <cstdio>
#include <cstdlib>

#include "backend/backend.h"
#include "sim/channel_sim.h"
#include "sim/engine.h"
#include "sim/spinal_session.h"
#include "util/math.h"
#include "util/prng.h"

int main(int argc, char** argv) {
  const double snr_db = argc > 1 ? std::atof(argv[1]) : 10.0;

  // The paper's recommended operating point (§7.1, §8.4).
  spinal::CodeParams params;
  params.n = 256;   // message bits per code block
  params.k = 4;     // bits per spine step
  params.c = 6;     // bits per constellation dimension
  params.B = 256;   // beam width
  params.d = 1;     // bubble depth (d=1 == M-algorithm)

  std::printf("spinal quickstart: n=%d k=%d c=%d B=%d d=%d  SNR=%.1f dB\n",
              params.n, params.k, params.c, params.B, params.d, snr_db);
  // The SIMD lane every decode runs on: the widest this CPU supports
  // unless SPINAL_BACKEND pins one.
  std::printf("kernel backend: %s (available: %s)\n", spinal::backend::active().name,
              spinal::backend::available_names().c_str());

  spinal::util::Xoshiro256 prng(2012);
  const spinal::util::BitVec message = prng.random_bits(params.n);

  spinal::sim::SpinalSession session(params);
  spinal::sim::ChannelSim channel(spinal::sim::ChannelKind::kAwgn, snr_db, 1, 42);

  const spinal::sim::RunResult r = run_message(session, channel, message);

  if (!r.success) {
    std::printf("decode FAILED after %ld symbols (give-up bound hit)\n", r.symbols);
    return 1;
  }

  const double rate = static_cast<double>(params.n) / r.symbols;
  const double cap = spinal::util::awgn_capacity(spinal::util::db_to_lin(snr_db));
  std::printf("decoded OK: %ld symbols, %d attempts\n", r.symbols, r.attempts);
  std::printf("rate     = %.3f bits/symbol\n", rate);
  std::printf("capacity = %.3f bits/symbol (%.0f%% achieved)\n", cap, 100 * rate / cap);
  std::printf("gap      = %.2f dB\n", spinal::util::gap_to_capacity_db(rate, snr_db));
  return 0;
}
