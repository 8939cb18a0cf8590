#pragma once
// Session decorators the fleets run through the DecodeService:
//
//   Stamped<S>    the untraced path: a concrete session type S whose
//                 destructor stamps the completion time (the service
//                 releases a session the moment its run finishes). No
//                 call is intercepted, so it costs nothing per step.
//   TimedSession  the traced path: forwards every RatelessSession call
//                 to the wrapped session and times next_chunk,
//                 receive_chunk and the decode entry points. Per-session
//                 tallies are merged into a shared Recorder when the
//                 session is released.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common.h"
#include "sim/session.h"

namespace perfbench {

/// Tallies of the calls one TimedSession (or, merged, a whole traced
/// phase) made into the session layer.
struct CallTally {
  double next_chunk_ns = 0, receive_chunk_ns = 0;
  long next_chunk_symbols = 0, receive_chunk_symbols = 0;
  double decode_ns[kFamilies] = {0, 0, 0};
  Samples decode_us[kFamilies];  ///< one sample per decode call

  void merge(const CallTally& o) {
    next_chunk_ns += o.next_chunk_ns;
    receive_chunk_ns += o.receive_chunk_ns;
    next_chunk_symbols += o.next_chunk_symbols;
    receive_chunk_symbols += o.receive_chunk_symbols;
    for (int f = 0; f < kFamilies; ++f) {
      decode_ns[f] += o.decode_ns[f];
      decode_us[f].append(o.decode_us[f]);
    }
  }
};

class Recorder {
 public:
  void merge(const CallTally& t) {
    std::lock_guard lock(m_);
    total_.merge(t);
  }
  /// Read once the service has drained (drain() orders the merges).
  const CallTally& total() const { return total_; }

 private:
  std::mutex m_;
  CallTally total_;
};

template <class S>
class Stamped final : public S {
 public:
  template <class... Args>
  explicit Stamped(std::int64_t* done_ns, Args&&... args)
      : S(std::forward<Args>(args)...), done_ns_(done_ns) {}
  ~Stamped() override { *done_ns_ = now_ns(); }

  Stamped(const Stamped&) = delete;
  Stamped& operator=(const Stamped&) = delete;

 private:
  std::int64_t* done_ns_;
};

class TimedSession final : public spinal::sim::RatelessSession {
 public:
  using RatelessSession = spinal::sim::RatelessSession;

  TimedSession(std::unique_ptr<RatelessSession> inner, Family family,
               Recorder* recorder, std::int64_t* done_ns)
      : inner_(std::move(inner)),
        family_(static_cast<int>(family)),
        recorder_(recorder),
        done_ns_(done_ns) {}
  ~TimedSession() override {
    *done_ns_ = now_ns();
    recorder_->merge(tally_);
  }

  TimedSession(const TimedSession&) = delete;
  TimedSession& operator=(const TimedSession&) = delete;

  int message_bits() const override { return inner_->message_bits(); }
  void start(const spinal::util::BitVec& message) override {
    inner_->start(message);
  }
  std::vector<std::complex<float>> next_chunk() override {
    const std::int64_t t0 = now_ns();
    std::vector<std::complex<float>> x = inner_->next_chunk();
    tally_.next_chunk_ns += static_cast<double>(now_ns() - t0);
    tally_.next_chunk_symbols += static_cast<long>(x.size());
    return x;
  }
  void receive_chunk(std::span<const std::complex<float>> y,
                     std::span<const std::complex<float>> csi) override {
    const std::int64_t t0 = now_ns();
    inner_->receive_chunk(y, csi);
    tally_.receive_chunk_ns += static_cast<double>(now_ns() - t0);
    tally_.receive_chunk_symbols += static_cast<long>(y.size());
  }
  std::optional<spinal::util::BitVec> try_decode() override {
    const std::int64_t t0 = now_ns();
    auto out = inner_->try_decode();
    record_decode(t0);
    return out;
  }
  std::optional<spinal::util::BitVec> try_decode_with(
      spinal::sim::CodecWorkspace* ws, int effort) override {
    const std::int64_t t0 = now_ns();
    auto out = inner_->try_decode_with(ws, effort);
    record_decode(t0);
    return out;
  }
  /// The concrete sessions static_cast their batch peers, so every job
  /// is handed over with its wrapped session in place of this wrapper.
  void try_decode_batch(spinal::sim::CodecWorkspace* ws,
                        std::span<spinal::sim::BatchDecodeJob> jobs) override {
    unwrapped_.assign(jobs.begin(), jobs.end());
    for (spinal::sim::BatchDecodeJob& j : unwrapped_)
      j.session = static_cast<TimedSession*>(j.session)->inner_.get();
    const std::int64_t t0 = now_ns();
    inner_->try_decode_batch(ws, unwrapped_);
    record_decode(t0);
  }
  spinal::sim::WorkspaceKey batch_key() const override {
    return inner_->batch_key();
  }
  spinal::sim::WorkspaceKey workspace_key() const override {
    return inner_->workspace_key();
  }
  std::unique_ptr<spinal::sim::CodecWorkspace> make_workspace() const override {
    return inner_->make_workspace();
  }
  spinal::sim::EffortProfile effort_profile() const override {
    return inner_->effort_profile();
  }
  int max_chunks() const override { return inner_->max_chunks(); }
  void set_noise_hint(double noise_variance) override {
    inner_->set_noise_hint(noise_variance);
  }

 private:
  void record_decode(std::int64_t t0) {
    const auto ns = static_cast<double>(now_ns() - t0);
    tally_.decode_ns[family_] += ns;
    tally_.decode_us[family_].add(ns / 1e3);
  }

  std::unique_ptr<RatelessSession> inner_;
  int family_;
  Recorder* recorder_;
  std::int64_t* done_ns_;
  CallTally tally_;
  std::vector<spinal::sim::BatchDecodeJob> unwrapped_;
};

}  // namespace perfbench
