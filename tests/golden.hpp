// Golden trajectories: the committed record of what one delivery run must
// produce, under tests/golden/<name>.golden.
//
// A trajectory is the engine's whole observable end state in plain text,
// one fact per line:
//
//   peers <n>
//   peer <id> completed <tick> down <0|1> symbols <count>
//   failed <receiver> sender <id> tick <tick> reason <liveness|handshake>
//   totals control_bytes <n> control_frames <n> data_bytes <n>
//       data_frames <n> frames_refused <n>          (one line in the file)
//
// Lines starting with '#' and blank lines are comments. Content is not
// recorded: every completed peer is byte-compared against the source
// instead. On a mismatch the test prints the observed trajectory in this
// format, so a deliberate protocol change updates the file by hand.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sharded_delivery.hpp"

namespace icd::golden {

inline std::string path(const std::string& name) {
  return std::string(ICD_SOURCE_DIR) + "/tests/golden/" + name + ".golden";
}

inline std::string render(const core::ShardedDelivery& engine) {
  std::ostringstream out;
  out << "peers " << engine.peer_count() << "\n";
  for (std::size_t p = 0; p < engine.peer_count(); ++p) {
    out << "peer " << p << " completed " << engine.peer_completion_tick(p)
        << " down " << (engine.peer_down(p) ? 1 : 0) << " symbols "
        << engine.peer(p).symbol_count() << "\n";
    for (const auto& failed : engine.session_result(p).failed_peers) {
      out << "failed " << p << " sender " << failed.peer << " tick "
          << failed.tick << " reason "
          << (failed.reason == core::FailedPeer::Reason::kLivenessTimeout
                  ? "liveness"
                  : "handshake")
          << "\n";
    }
  }
  const auto totals = engine.link_totals();
  out << "totals control_bytes " << totals.control_bytes << " control_frames "
      << totals.control_frames << " data_bytes " << totals.data_bytes
      << " data_frames " << totals.data_frames << " frames_refused "
      << totals.frames_refused << "\n";
  return out.str();
}

/// The golden file's trajectory lines (comments and blanks dropped), or
/// an empty string when the file is missing.
inline std::string load(const std::string& name) {
  std::ifstream in(path(name));
  std::string text;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    text += line + "\n";
  }
  return text;
}

/// EXPECTs the engine's end state to equal golden `name` and every
/// completed peer to hold exactly `content`. `driver` labels the run in
/// failure messages.
inline void expect_matches(const std::string& name, const std::string& driver,
                           const core::ShardedDelivery& engine,
                           const std::vector<std::uint8_t>& content) {
  const std::string observed = render(engine);
  if (observed != load(name)) {
    ADD_FAILURE() << driver << " run differs from " << path(name)
                  << "; observed trajectory:\n"
                  << "--- begin " << name << " ---\n"
                  << observed << "--- end " << name << " ---";
  }
  for (std::size_t p = 0; p < engine.peer_count(); ++p) {
    if (engine.peer_complete(p)) {
      EXPECT_EQ(engine.peer_content(p), content)
          << driver << ": peer " << p << " of " << name;
    }
  }
}

}  // namespace icd::golden
