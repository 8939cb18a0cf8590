#include "runtime/session_mux.h"

#include <stdexcept>

namespace spinal::runtime {

SessionMux::Sess::Sess(SessionMux* mux, SessionId sid, const CodeParams& p,
                       int blocks_n, const AttemptSchedule& schedule)
    : id(sid), params(p), receiver(p, blocks_n, schedule),
      blocks(static_cast<std::size_t>(blocks_n)) {
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    blocks[b].mux = mux;
    blocks[b].sess = this;
    blocks[b].index = static_cast<int>(b);
  }
}

const CodeParams& SessionMux::Block::spinal_params() const {
  return sess->params;
}

void SessionMux::Block::attempt_result(const DecodeResult& r, bool full) {
  // On the decoding worker, before record_attempt on the same thread.
  path_cost = full ? std::optional<double>(r.path_cost) : std::nullopt;
}

bool SessionMux::Block::record_attempt(
    const std::optional<util::BitVec>& candidate) {
  std::lock_guard lock(mux->m_);
  LinkReceiver& rx = sess->receiver;
  if (candidate && rx.complete_block(index, *candidate, path_cost))
    mux->acks_.push_back({sess->id, rx.current_ack()});
  return rx.block_decoded(index);
}

bool SessionMux::Block::complete() {
  // Releasing the claim applies the symbols that arrived mid-decode;
  // when the schedule makes their attempt due now (the sender may have
  // paused for good), the block goes straight back on the service.
  std::lock_guard lock(mux->m_);
  LinkReceiver& rx = sess->receiver;
  if (rx.release_block(index)) {
    decoder = &rx.claim_block(index);
    return true;
  }
  mux->settle_locked();
  return false;
}

void SessionMux::Block::abandon() noexcept {
  std::lock_guard lock(mux->m_);
  sess->receiver.release_block(index);
  mux->settle_locked();
}

SessionMux::SessionMux(DecodeService& service, const Options& opt)
    : service_(&service), opt_(opt) {
  opt_.attempt.validate();
}

SessionMux::~SessionMux() { wait_idle(); }

SessionMux::Sess& SessionMux::at(SessionId id) {
  if (id >= sessions_.size())
    throw std::out_of_range("SessionMux: bad session id");
  return *sessions_[id];
}

const SessionMux::Sess& SessionMux::at(SessionId id) const {
  if (id >= sessions_.size())
    throw std::out_of_range("SessionMux: bad session id");
  return *sessions_[id];
}

SessionMux::SessionId SessionMux::open(const CodeParams& params, int block_count) {
  if (block_count < 1)
    throw std::invalid_argument("SessionMux::open: block_count must be >= 1");
  std::lock_guard lock(m_);
  sessions_.push_back(std::make_unique<Sess>(this, sessions_.size(), params,
                                             block_count, opt_.attempt.schedule()));
  return sessions_.size() - 1;
}

void SessionMux::ingest(SessionId id, const LinkSymbol& symbol,
                        std::complex<float> csi) {
  std::lock_guard lock(m_);
  at(id).receiver.receive(symbol, csi);
}

void SessionMux::pause_point(SessionId id) {
  // Claims are taken under the lock, but the posts happen outside it:
  // DecodeService::post() can block on the external-work cap, and that
  // cap only drains when blocks settle — which requires this mutex in
  // Block::complete. Posting under the lock would deadlock the whole
  // service at sustained overload.
  std::vector<Block*> claimed;
  {
    std::lock_guard lock(m_);
    Sess& s = at(id);
    for (int b : s.receiver.pause()) {
      Block& blk = s.blocks[static_cast<std::size_t>(b)];
      blk.decoder = &s.receiver.claim_block(b);
      ++outstanding_;
      claimed.push_back(&blk);
    }
  }
  for (Block* blk : claimed) service_->post(*blk);
}

void SessionMux::settle_locked() {
  --outstanding_;
  // Notify under the lock: wait_idle() (and through it ~SessionMux) may
  // destroy the condvar as soon as it can observe outstanding_ == 0,
  // which it cannot do before we release the mutex.
  cv_idle_.notify_all();
}

std::vector<SessionMux::AckEvent> SessionMux::poll_acks() {
  std::lock_guard lock(m_);
  std::vector<AckEvent> out;
  out.swap(acks_);
  return out;
}

AckBitmap SessionMux::current_ack(SessionId id) const {
  std::lock_guard lock(m_);
  return at(id).receiver.current_ack();
}

bool SessionMux::done(SessionId id) const {
  std::lock_guard lock(m_);
  return at(id).receiver.current_ack().all_decoded();
}

std::optional<std::vector<std::uint8_t>> SessionMux::datagram(SessionId id) const {
  std::lock_guard lock(m_);
  return at(id).receiver.datagram();
}

void SessionMux::wait_idle() {
  std::unique_lock lock(m_);
  cv_idle_.wait(lock, [&] { return outstanding_ == 0; });
}

double SessionMux::noise_estimate(SessionId id) const {
  std::lock_guard lock(m_);
  return at(id).receiver.noise_estimate();
}

std::int64_t SessionMux::attempts(SessionId id) const {
  std::lock_guard lock(m_);
  return at(id).receiver.attempts();
}

std::uint64_t SessionMux::stale_symbols() const {
  std::lock_guard lock(m_);
  std::uint64_t stale = 0;
  for (const auto& s : sessions_) stale += s->receiver.stale_symbols();
  return stale;
}

}  // namespace spinal::runtime
