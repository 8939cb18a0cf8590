#include "runtime/runtime.h"

#include <cstdlib>
#include <thread>

namespace spinal::runtime {

int bench_threads() {
  if (const char* env = std::getenv("SPINAL_BENCH_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

sim::ChannelSim ChannelSpec::make() const {
  if (kind == sim::ChannelKind::kBsc) return sim::ChannelSim::bsc(crossover, seed);
  return sim::ChannelSim(kind, snr_db, coherence, seed);
}

SessionReport run_sequential(const SessionSpec& spec) {
  const std::unique_ptr<sim::RatelessSession> session = spec.make_session();
  sim::ChannelSim channel = spec.channel.make();
  SessionReport report;
  report.run = sim::run_message(*session, channel, spec.message, spec.engine);
  report.message_bits = session->message_bits();
  return report;
}

}  // namespace spinal::runtime
