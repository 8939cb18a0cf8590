#pragma once
// The concrete CodecWorkspace of every spinal-decoder-backed decode
// target (AWGN/fading SpinalSession, BscSession, and the link-layer
// mux's code blocks): the beam-search DecodeWorkspace plus a
// DecodeResult scratch, pinned together per worker so steady-state
// attempts stay allocation-free. All spinal targets key their
// workspaces under codec "spinal" with every CodeParams field
// serialized into the params string — equal keys guarantee
// interchangeable workspace layouts — and decode through the one
// SpinalTarget implementation below.

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/session.h"
#include "spinal/cost_model.h"
#include "spinal/decoder.h"
#include "spinal/params.h"

namespace spinal::sim {

struct SpinalWorkspace final : CodecWorkspace {
  detail::DecodeWorkspace ws;
  DecodeResult out;
  /// Per-block result slots of batched decodes (try_decode_batch);
  /// sized to the batch, reused across batches.
  std::vector<DecodeResult> batch_out;
};

/// The WorkspaceKey all spinal decode targets pin under.
inline WorkspaceKey spinal_workspace_key(const CodeParams& p) {
  std::string s;
  s.reserve(128);
  const auto add_i = [&s](long long v) {
    s += std::to_string(v);
    s += ';';
  };
  const auto add_d = [&s](double v) {
    s += std::to_string(v);
    s += ';';
  };
  add_i(p.n);
  add_i(p.k);
  add_i(p.c);
  add_i(p.B);
  add_i(p.d);
  add_i(p.tail_symbols);
  add_i(p.puncture_ways);
  add_i(static_cast<int>(p.map));
  add_i(static_cast<int>(p.hash_kind));
  add_d(p.beta);
  add_d(p.power);
  add_i(p.salt);
  add_i(p.s0);
  add_i(p.max_passes);
  add_i(p.fixed_point_frac_bits);
  // Narrow-metric decodes size quantized search buffers the f32 path
  // never touches — distinct precisions must not share a workspace.
  add_i(static_cast<int>(resolve_cost_precision(p.cost_precision)));
  return WorkspaceKey{"spinal", std::move(s)};
}

/// Batch-aggregation key of a spinal session: the workspace key refined
/// by channel flavor ("spinal.awgn" / "spinal.bsc"). AWGN and BSC
/// sessions deliberately share spinal_workspace_key so a worker pins one
/// scratch for both, but their BlockJob types differ — batches must not
/// mix them.
inline WorkspaceKey spinal_batch_key(const CodeParams& p, const char* flavor) {
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
    std::vector<typename Decoder::BlockJob> blocks(jobs.size());
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
  /// Refines the batch key ("spinal.awgn", "spinal.bsc", ...).
  virtual const char* batch_flavor() const = 0;
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
