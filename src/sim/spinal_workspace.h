#pragma once
// The concrete CodecWorkspace of every spinal-decoder-backed decode
// target (AWGN/fading SpinalSession, BscSession, and the link-layer
// mux's code blocks): the beam-search DecodeWorkspace plus a
// DecodeResult scratch, pinned together per worker so steady-state
// attempts stay allocation-free. All spinal targets key their
// workspaces under KeyCodec::kSpinal with every CodeParams field packed
// into the key's words — equal keys guarantee interchangeable workspace
// layouts — and decode through the one SpinalTarget implementation
// below.

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "sim/session.h"
#include "spinal/cost_model.h"
#include "spinal/decoder.h"
#include "spinal/params.h"

namespace spinal::sim {

struct SpinalWorkspace final : CodecWorkspace {
  detail::DecodeWorkspace ws;
  DecodeResult out;
  /// Per-block result slots and block lists of batched decodes
  /// (try_decode_batch; one list per decoder type, since AWGN and BSC
  /// targets share this workspace): sized to the batch, reused across
  /// batches, so a warmed workspace batches without allocating.
  std::vector<DecodeResult> batch_out;
  std::tuple<std::vector<SpinalDecoder::BlockJob>, std::vector<BscSpinalDecoder::BlockJob>>
      blocks;
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
/// scratch for both, but their BlockJob types differ — batches must not
/// mix them.
inline WorkspaceKey spinal_batch_key(const CodeParams& p, KeyCodec flavor) {
  WorkspaceKey key = spinal_workspace_key(p);
  key.codec = flavor;
  return key;
}

/// The DecodeTarget half every spinal-decoder-backed target shares:
/// solo attempts in the pinned SpinalWorkspace (or, with none pinned,
/// in the decoder's own scratch at the configured width), one fused
/// Decoder::decode_batch_with per batch, bit-identical per block to the
/// solo attempt, the spinal keys, and the beam width as effort knob.
/// @p Base is DecodeTarget or a subclass (RatelessSession, BlockUnit).
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
    spinal_decoder().decode_with(sw->ws, sw->out, effort);
    attempt_result(sw->out, full_effort(effort));
    return sw->out.message;
  }

  void try_decode_batch(CodecWorkspace* ws,
                        std::span<BatchDecodeJob> jobs) override {
    auto* sw = static_cast<SpinalWorkspace*>(ws);
    if (sw == nullptr || jobs.size() < 2) {
      DecodeTarget::try_decode_batch(ws, jobs);
      return;
    }
    if (sw->batch_out.size() < jobs.size()) sw->batch_out.resize(jobs.size());
    auto& blocks = std::get<std::vector<typename Decoder::BlockJob>>(sw->blocks);
    blocks.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // Equal batch keys guarantee every job's target is of this type
      // (the same contract try_decode_with's workspace downcast rests on).
      const auto& peer = static_cast<const SpinalTarget&>(*jobs[i].session);
      blocks[i] = {&peer.spinal_decoder(), &sw->batch_out[i], jobs[i].effort};
    }
    Decoder::decode_batch_with(sw->ws, blocks);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      auto& peer = static_cast<SpinalTarget&>(*jobs[i].session);
      peer.attempt_result(sw->batch_out[i], full_effort(jobs[i].effort));
      *jobs[i].candidate = sw->batch_out[i].message;
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
};

}  // namespace spinal::sim
