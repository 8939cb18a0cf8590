#pragma once
// Shared types for the concurrent multi-session decode runtime
// (src/runtime/): session/channel specifications, per-session reports,
// service options, and the codec-tagged key under which workers pin
// reusable decode workspaces.
//
// The runtime is the scale-out story for the single-thread kernel work:
// the paper's link layer (§6) and execution engine (§8.1) assume a
// radio serving many simultaneous code blocks, so the service
// multiplexes thousands of rateless sessions onto a small worker pool
// (decode_service.h) and ingests tagged link-symbol streams
// (session_mux.h), trading per-codec decode effort for compute under
// load (adaptive.h, the Fig 8-6 knob generalized).

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/channel_sim.h"
#include "sim/engine.h"
#include "sim/session.h"
#include "util/bitvec.h"

namespace spinal::runtime {

/// Per-session channel description; make() builds the (stateful,
/// per-session seeded) simulator.
struct ChannelSpec {
  sim::ChannelKind kind = sim::ChannelKind::kAwgn;
  double snr_db = 15.0;    ///< AWGN/Rayleigh operating point (ignored for kBsc)
  double crossover = 0.05; ///< kBsc flip probability (ignored otherwise)
  int coherence = 1;       ///< Rayleigh coherence time in symbols
  std::uint64_t seed = 1;

  sim::ChannelSim make() const;
};

/// Everything needed to run one message through the runtime — or
/// through the sequential reference loop, which must agree bit-for-bit
/// in deterministic mode.
struct SessionSpec {
  /// Fresh session per run; invoked once at submit time. Must be safe
  /// to call from any thread.
  std::function<std::unique_ptr<sim::RatelessSession>()> make_session;
  ChannelSpec channel;
  util::BitVec message;
  sim::EngineOptions engine;
};

struct SessionReport {
  sim::RunResult run;
  int message_bits = 0;
  double decode_micros = 0.0;       ///< decode time summed over attempts
  int reduced_effort_attempts = 0;  ///< attempts shrunk by the load policy
  int full_effort_retries = 0;      ///< idle retries at full effort
};

/// Default worker count of a DecodeService (RuntimeOptions::workers = 0)
/// and of the experiment sweeps: SPINAL_BENCH_THREADS when set to a
/// positive integer, otherwise hardware_concurrency() (minimum 1).
/// Re-reads the environment on every call.
int bench_threads();

/// The sequential loop the deterministic runtime must reproduce
/// bit-identically: run_message over the spec (same factory, channel
/// seed and engine options). decode_micros is not measured here.
SessionReport run_sequential(const SessionSpec& spec);

/// The workspace-pool key: sim::WorkspaceKey, the codec-tagged value
/// (codec, packed parameter words) every session reports. Distinct keys
/// (heterogeneous links, different codecs) get distinct pinned
/// workspaces, so steady-state decodes stay allocation-free per key.
using WorkspaceKey = sim::WorkspaceKey;

}  // namespace spinal::runtime
