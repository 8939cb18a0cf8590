#pragma once
// The common rateless-session interface every code implements so that a
// single execution engine can stream symbols from encoder through the
// channel to the decoder and collect identical statistics for all codes
// (§8.1: "All codes run through the same engine", with "no sharing of
// information between the transmitter and receiver components").
//
// The decode runtime drives sessions through the same interface, so the
// codec-facing seam is deliberately type-erased: a session may expose a
// reusable decode workspace (CodecWorkspace + WorkspaceKey, pinned per
// worker by the runtime) and a generic integer "effort" knob — beam
// width for spinal, BP iteration cap for LDPC/Raptor, turbo iteration
// budget for Turbo/Strider — that the load-adaptive policy trades for
// compute under overload (the Fig 8-6 knob, generalized).

#include <array>
#include <bit>
#include <complex>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "util/bitvec.h"

namespace spinal::sim {

/// Type-erased per-worker decode scratch. Concrete sessions downcast to
/// their own derived type; the contract is that two sessions reporting
/// equal WorkspaceKeys produce (and accept) the same concrete type, so a
/// runtime worker can pin one workspace per key and share it across all
/// sessions of that codec/parameter combination.
class CodecWorkspace {
 public:
  virtual ~CodecWorkspace() = default;
};

/// The codec family a WorkspaceKey belongs to, refined for batch keys
/// by flavor: spinal AWGN sessions, BSC sessions and the link-layer
/// mux's code blocks share the kSpinal workspace key but batch apart.
enum class KeyCodec : std::uint8_t {
  kNone,  ///< no pinnable workspace (the invalid key)
  kSpinal,
  kSpinalAwgn,
  kSpinalBsc,
  kSpinalLink,
  kLdpc,
};

/// The family's label ("spinal.bsc", ...), the codec half of the
/// runtime's per-tag telemetry label.
constexpr const char* codec_name(KeyCodec codec) noexcept {
  constexpr const char* kNames[] = {"none",       "spinal",      "spinal.awgn",
                                    "spinal.bsc", "spinal.link", "ldpc"};
  return kNames[static_cast<int>(codec)];
}

/// Codec-tagged key under which the runtime pins workspaces (and, as
/// batch_key(), aggregates batches): a plain value, compared as one.
/// `codec` names the family; `words` pack every parameter the
/// workspace layout depends on, one field per word (integers and enums
/// widened, doubles by their bit pattern, unused words zero), so
/// distinct parameter sets (heterogeneous links) never share scratch
/// and nearly equal doubles never collide. A default-constructed
/// (invalid) key means the session has no pinnable workspace — its
/// decode attempts run unpinned, which the runtime's telemetry counts.
/// Keys are totally ordered (std::map keys) and cheap to copy.
struct WorkspaceKey {
  static constexpr std::size_t kWords = 16;

  KeyCodec codec = KeyCodec::kNone;
  std::array<std::uint64_t, kWords> words{};

  /// The key of @p codec over @p fields, one word each.
  template <class... Fields>
  static constexpr WorkspaceKey of(KeyCodec codec, Fields... fields) {
    static_assert(sizeof...(Fields) <= kWords, "WorkspaceKey: too many fields");
    return {codec, {word(fields)...}};
  }

  bool valid() const noexcept { return codec != KeyCodec::kNone; }
  auto operator<=>(const WorkspaceKey&) const = default;

 private:
  template <class T>
  static constexpr std::uint64_t word(T v) noexcept {
    if constexpr (std::is_floating_point_v<T>)
      return std::bit_cast<std::uint64_t>(static_cast<double>(v));
    else
      return static_cast<std::uint64_t>(v);
  }
};

/// The session's compute/accuracy knob: `full` is the configured effort
/// (spinal beam width B, LDPC/Raptor BP iterations, turbo iterations),
/// `floor` the lowest value at which an attempt is still worth running.
/// full == 0 means the session has no knob and every attempt runs at
/// the configured setting.
struct EffortProfile {
  int full = 0;
  int floor = 1;
};

class DecodeTarget;

/// One target's slot in a cross-target batched decode attempt
/// (try_decode_batch): the target to decode (a session, or one of the
/// link-layer mux's code blocks), the effort to run it at (same
/// semantics as try_decode_with) and where to write its candidate.
struct BatchDecodeJob {
  DecodeTarget* session = nullptr;
  int effort = 0;
  std::optional<util::BitVec>* candidate = nullptr;
};

/// The decode-facing half of a session: everything the decode runtime
/// needs to run an attempt, batch it with its peers and pin its scratch.
/// Every RatelessSession is one; the runtime's SessionMux code blocks
/// (runtime/session_mux.h) are the other kind, stepped on the same path.
class DecodeTarget {
 public:
  virtual ~DecodeTarget() = default;

  /// Runs one decode attempt with caller-owned pinned scratch @p ws — a
  /// workspace built by make_workspace() of any target with an equal
  /// workspace_key(), or nullptr when none is pinned — at @p effort
  /// (<= 0: the configured full effort). With effort <= 0 the candidate
  /// is bit-identical regardless of @p ws, which is what
  /// deterministic-mode runtime/sequential equivalence rests on.
  virtual std::optional<util::BitVec> try_decode_with(CodecWorkspace* ws,
                                                      int effort) = 0;

  /// Runs one decode attempt for every job in @p jobs in a single
  /// batched pass over @p ws. The runtime only forms batches whose
  /// targets all report this target's (equal, valid) batch_key(), and
  /// always dispatches on jobs.front().session; each job's candidate
  /// must be bit-identical to the same-effort try_decode_with call run
  /// alone. The default runs the jobs sequentially, so codecs without a
  /// multi-block decode entry point get batching as a no-op.
  virtual void try_decode_batch(CodecWorkspace* ws,
                                std::span<BatchDecodeJob> jobs) {
    for (BatchDecodeJob& j : jobs)
      *j.candidate = j.session->try_decode_with(ws, j.effort);
  }

  /// The key under which the runtime aggregates this target's decode
  /// jobs into batched attempts (try_decode_batch). Must be at least as
  /// fine as workspace_key() — targets with equal batch keys must be
  /// safely batchable together, which can require distinguishing codecs
  /// that deliberately share workspace layouts. Invalid (default) key:
  /// this target's jobs are never batched.
  virtual WorkspaceKey batch_key() const { return {}; }

  /// The key under which the runtime pins this target's workspace; an
  /// invalid (default) key means attempts run unpinned.
  virtual WorkspaceKey workspace_key() const { return {}; }

  /// Builds a fresh workspace matching workspace_key(); nullptr when
  /// the target has none.
  virtual std::unique_ptr<CodecWorkspace> make_workspace() const {
    return nullptr;
  }

  /// The effort knob this target's decoder exposes (full == 0: none).
  virtual EffortProfile effort_profile() const { return {}; }
};

class RatelessSession : public DecodeTarget {
 public:
  /// Message length in bits this session encodes per run.
  virtual int message_bits() const = 0;

  /// Begins transmission of @p message (message_bits() bits).
  virtual void start(const util::BitVec& message) = 0;

  /// Produces the next chunk of modulated symbols in transmission order.
  /// Chunk boundaries are the decode-attempt opportunities. An empty
  /// chunk means "this scheduling slot carries nothing" (possible with
  /// short spines and deep puncturing) — the engine skips it.
  virtual std::vector<std::complex<float>> next_chunk() = 0;

  /// Delivers the channel output for the chunk produced by the last
  /// next_chunk() call. @p csi is either empty (decoder must treat the
  /// channel as AWGN) or per-symbol fading coefficients.
  virtual void receive_chunk(std::span<const std::complex<float>> y,
                             std::span<const std::complex<float>> csi) = 0;

  /// Runs one decode attempt at full effort with no pinned workspace
  /// (the sequential engine's form of try_decode_with); returns a
  /// candidate message if the decoder produced one (the engine validates
  /// it against the transmitted message, playing the role of the
  /// link-layer CRC).
  virtual std::optional<util::BitVec> try_decode() { return try_decode_with(nullptr, 0); }

  /// Upper bound on chunks before the sender gives up on the message.
  virtual int max_chunks() const = 0;

  /// Receiver-side channel knowledge: the engine announces the noise
  /// variance once per run (real receivers estimate this from preambles;
  /// soft demappers need it, the spinal decoder does not).
  virtual void set_noise_hint(double /*noise_variance*/) {}
};

}  // namespace spinal::sim
