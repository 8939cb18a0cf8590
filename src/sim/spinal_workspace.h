#pragma once
// The concrete CodecWorkspace of every spinal-decoder-backed decode
// target (the one session template under either channel metric —
// SpinalSession, BscSession — and the link-layer mux's code blocks):
// the beam-search DecodeWorkspace plus a DecodeResult scratch, pinned
// together per worker so steady-state attempts stay allocation-free. All spinal targets key their
// workspaces under KeyCodec::kSpinal with every CodeParams field packed
// into the key's words — equal keys guarantee interchangeable workspace
// layouts — and decode through the one SpinalTarget implementation
// below. A batch is the blocks' solo attempts back to back in this one
// workspace, so its size never scales with the batch.

#include <algorithm>
#include <memory>
#include <optional>
#include <span>

#include "sim/session.h"
#include "spinal/cost_model.h"
#include "spinal/decoder.h"
#include "spinal/params.h"

namespace spinal::sim {

struct SpinalWorkspace final : CodecWorkspace {
  detail::DecodeWorkspace ws;
  DecodeResult out;
};

/// The WorkspaceKey all spinal decode targets pin under: every
/// CodeParams field, the precision resolved (narrow-metric decodes size
/// quantized search buffers the f32 path never touches, so distinct
/// precisions must not share a workspace).
inline WorkspaceKey spinal_workspace_key(const CodeParams& p) {
  return WorkspaceKey::of(KeyCodec::kSpinal, p.n, p.k, p.c, p.B, p.d, p.tail_symbols,
                          p.puncture_ways, p.map, p.hash_kind, p.beta, p.power, p.salt,
                          p.s0, p.max_passes, p.fixed_point_frac_bits,
                          resolve_cost_precision(p.cost_precision));
}

/// Batch-aggregation key of a spinal target: the workspace key refined
/// by flavor (kSpinalAwgn / kSpinalBsc / kSpinalLink). AWGN and BSC
/// sessions deliberately share spinal_workspace_key so a worker pins one
/// scratch for both, but their decoder instantiations differ (one
/// Decoder template, two metrics) — batches must not mix them.
inline WorkspaceKey spinal_batch_key(const CodeParams& p, KeyCodec flavor) {
  WorkspaceKey key = spinal_workspace_key(p);
  key.codec = flavor;
  return key;
}

/// The DecodeTarget half every spinal-decoder-backed target shares:
/// solo attempts in the pinned SpinalWorkspace (or, with none pinned,
/// in the decoder's own scratch at the configured width), a batch as
/// the jobs' solo attempts back to back in that one workspace, the
/// spinal keys, and the beam width as effort knob.
/// @p Base is DecodeTarget or a subclass (RatelessSession, BlockUnit);
/// @p Decoder is Decoder<AwgnMetric> or Decoder<BscMetric>.
template <class Base, class Decoder>
class SpinalTarget : public Base {
 public:
  std::optional<util::BitVec> try_decode_with(CodecWorkspace* ws,
                                              int effort) override {
    auto* sw = static_cast<SpinalWorkspace*>(ws);
    if (sw == nullptr) {
      DecodeResult r = spinal_decoder().decode();
      attempt_result(r, true);
      return std::move(r.message);
    }
    attempt_in(*sw, effort);
    return sw->out.message;
  }

  void try_decode_batch(CodecWorkspace* ws,
                        std::span<BatchDecodeJob> jobs) override {
    auto* sw = static_cast<SpinalWorkspace*>(ws);
    if (sw == nullptr) {
      DecodeTarget::try_decode_batch(ws, jobs);
      return;
    }
    for (BatchDecodeJob& j : jobs) {
      // Equal batch keys guarantee every job's target is of this type
      // (the same contract try_decode_with's workspace downcast rests on).
      static_cast<SpinalTarget&>(*j.session).attempt_in(*sw, j.effort);
      // Assigned into the engaged candidate's storage: a warm batch
      // allocates nothing.
      *j.candidate = sw->out.message;
    }
  }

  WorkspaceKey batch_key() const override {
    return spinal_batch_key(spinal_params(), batch_flavor());
  }
  WorkspaceKey workspace_key() const override {
    return spinal_workspace_key(spinal_params());
  }
  std::unique_ptr<CodecWorkspace> make_workspace() const override {
    return std::make_unique<SpinalWorkspace>();
  }
  EffortProfile effort_profile() const override {
    return {spinal_params().B, std::min(16, spinal_params().B)};
  }

 protected:
  virtual const CodeParams& spinal_params() const = 0;
  /// The decoder holding the target's received symbols.
  virtual const Decoder& spinal_decoder() const = 0;
  /// Refines the batch key (KeyCodec::kSpinalAwgn, kSpinalBsc, ...).
  virtual KeyCodec batch_flavor() const = 0;
  /// Sees each attempt's whole result, path cost included, on the
  /// decoding thread; @p full is false for a shrunk beam. The mux's
  /// code blocks feed it to their link's noise estimate.
  virtual void attempt_result(const DecodeResult& /*r*/, bool /*full*/) {}

 private:
  bool full_effort(int effort) const {
    return effort <= 0 || effort >= spinal_params().B;
  }
  /// One attempt into @p sw.out, reported to attempt_result().
  void attempt_in(SpinalWorkspace& sw, int effort) {
    spinal_decoder().decode_with(sw.ws, sw.out, effort);
    attempt_result(sw.out, full_effort(effort));
  }
};

}  // namespace spinal::sim
