#include "runtime/session_mux.h"

#include <algorithm>
#include <stdexcept>

namespace spinal::runtime {

SessionMux::Sess::Sess(SessionMux* mux, SessionId sid, const CodeParams& p,
                       int blocks_n, int first_attempt)
    : id(sid), params(p), receiver(p, blocks_n),
      blocks(static_cast<std::size_t>(blocks_n)) {
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    blocks[b].mux = mux;
    blocks[b].sess = this;
    blocks[b].index = static_cast<int>(b);
    blocks[b].next_attempt = first_attempt;
  }
}

const CodeParams& SessionMux::Block::spinal_params() const {
  return sess->params;
}

bool SessionMux::Block::record_attempt(
    const std::optional<util::BitVec>& candidate) {
  std::lock_guard lock(mux->m_);
  LinkReceiver& rx = sess->receiver;
  if (candidate && rx.complete_block(index, *candidate))
    mux->acks_.push_back({sess->id, rx.current_ack()});
  return rx.block_decoded(index);
}

bool SessionMux::Block::complete() {
  // The block's completion: apply the symbols that arrived mid-decode
  // (stale by definition if the block decoded), then attempt again now
  // if it is still undecoded and its store grew — or the buffered
  // symbols would never get their attempt (the sender may already have
  // paused for good) — else settle it.
  std::lock_guard lock(mux->m_);
  LinkReceiver& rx = sess->receiver;
  const bool grew = !pending.empty();
  if (rx.block_decoded(index)) {
    mux->stale_ += pending.size();
  } else {
    for (const auto& [sym, csi] : pending) rx.receive(sym, csi);
  }
  pending.clear();
  if (grew && !rx.block_decoded(index)) {
    decoder = &rx.claim_block(index);
    return true;
  }
  mux->settle_locked(*this);
  return false;
}

void SessionMux::Block::abandon() noexcept {
  std::lock_guard lock(mux->m_);
  mux->settle_locked(*this);
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
                                             block_count,
                                             opt_.attempt.attempt_every));
  return sessions_.size() - 1;
}

void SessionMux::ingest(SessionId id, const LinkSymbol& symbol,
                        std::complex<float> csi) {
  std::lock_guard lock(m_);
  Sess& s = at(id);
  if (symbol.block < 0 || symbol.block >= static_cast<int>(s.blocks.size()))
    throw std::out_of_range("SessionMux::ingest: bad block index");
  if (s.receiver.block_decoded(symbol.block)) {
    ++stale_;
    return;
  }
  Block& blk = s.blocks[static_cast<std::size_t>(symbol.block)];
  if (blk.outstanding)
    blk.pending.emplace_back(symbol, csi);  // store is on a worker thread
  else
    s.receiver.receive(symbol, csi);
  blk.got_symbols = true;
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
    for (Block& blk : s.blocks) {
      if (!blk.got_symbols) continue;
      blk.got_symbols = false;
      ++blk.fed_bursts;
      if (blk.outstanding || s.receiver.block_decoded(blk.index)) continue;
      if (!s.receiver.block_dirty(blk.index)) continue;
      if (blk.fed_bursts < blk.next_attempt) continue;
      // Same schedule as the engine: linear floor + geometric back-off.
      blk.next_attempt =
          std::max(blk.fed_bursts + opt_.attempt.attempt_every,
                   static_cast<int>(blk.fed_bursts * opt_.attempt.attempt_growth));
      blk.outstanding = true;
      ++outstanding_;
      blk.decoder = &s.receiver.claim_block(blk.index);
      claimed.push_back(&blk);
    }
  }
  for (Block* blk : claimed) service_->post(*blk);
}

void SessionMux::settle_locked(Block& blk) {
  blk.outstanding = false;
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

std::uint64_t SessionMux::stale_symbols() const {
  std::lock_guard lock(m_);
  return stale_;
}

}  // namespace spinal::runtime
