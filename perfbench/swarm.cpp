// Benchmark binary: one workload, one seed, one process.
//
//   perfbench_swarm --workload <swarm-wide|bulk-recode|churn-mixed>
//                    --seed <n> --mode <run|trace> [--seconds <s>]
//                    [--min-reps <n>] [--setup-reps <k>]
//
// Builds the workload's inputs from the seed, sets the swarm up through the
// public engine (core::ShardedDelivery, one shard, inline on this thread),
// drives it to completion and checks the bytes of every completed peer.
// Repeats that until --seconds have passed (at least --min-reps times, default
// 3) and prints one JSON object per repetition, one per line. Run mode sets
// the swarm up --setup-reps times (default 9) and reports the median.
//
//   run    untimed-layer run: the host speed index, set-up time, host wall
//          time of run_until, peak RSS, and the exact (virtual-time,
//          byte-count) metrics.
//   trace  the same trajectory with spans around the benchmark's own calls into
//          each layer (set-up phases, refresh ticks, epochs, verification),
//          every public counter the layers expose, and the data-path and
//          control-plane ladders timed against the layers' public APIs.
//
// Nothing here reaches into src/: every layer is timed from outside.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "codec/degree.hpp"
#include "codec/recoder.hpp"
#include "core/delivery.hpp"
#include "core/endpoint.hpp"
#include "core/event_loop.hpp"
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "core/scenario.hpp"
#include "core/session_plan.hpp"
#include "core/sharded_delivery.hpp"
#include "filter/bloom.hpp"
#include "reconcile/set_difference.hpp"
#include "sketch/minwise.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"
#include "wire/transport.hpp"
#include "wire/udp.hpp"

namespace {

using namespace icd;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// --- Output ------------------------------------------------------------------

/// Flat JSON object writer; values keep every digit they were measured with.
class Json {
 public:
  void number(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    field(key, std::isfinite(value) ? buffer : "null");
  }
  void integer(const std::string& key, std::uint64_t value) {
    field(key, std::to_string(value));
  }
  void boolean(const std::string& key, bool value) {
    field(key, value ? "true" : "false");
  }
  void string(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    field(key, quoted + "\"");
  }
  void raw(const std::string& key, const std::string& json) { field(key, json); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

// --- Workloads ---------------------------------------------------------------

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// Everything one workload needs, made before any timing starts. The seed
/// generates the content bytes. The protocol's own randomness (session seed,
/// scenario seed, link loss draws, arrivals, faults) is fixed per workload:
/// the codec's decisions depend on symbol ids, never on payload bytes, so
/// every seed runs the same trajectory and the exact metrics repeat across
/// seeds. `options` is used by the direct-engine workloads; churn-mixed
/// compiles `scenario_text` during set-up instead.
struct WorkloadInputs {
  std::string name;
  std::string scenario_text;
  std::vector<std::uint8_t> content;
  core::DeliveryOptions options;
  std::size_t peers = 0;
  std::size_t fed_every = 0;  // peer p is origin-fed when p % fed_every == 0
  std::size_t fed_below = 0;  // ... or when p < fed_below
  std::size_t mirrors = 0;
  std::uint64_t max_ticks = 0;  // a compiled scenario brings its own
};

/// ~6k small peers: four 256 B blocks each, so admission, planning and the
/// handshake control plane dominate the data path.
WorkloadInputs swarm_wide(std::uint64_t seed) {
  WorkloadInputs in;
  in.name = "swarm-wide";
  in.content = random_bytes(1024, util::mix64(seed ^ 0x5a1));
  in.options.block_size = 256;
  in.options.session_seed = 97;
  in.options.refresh_interval = 40;
  in.options.admission_sample = 4;
  in.options.link.delay_ticks = 1;
  in.options.flow_control = true;
  in.peers = 6000;
  in.fed_every = 8;
  in.max_ticks = 20000;
  return in;
}

/// 64 peers, 512 KiB in 1 KiB blocks over untimed lossless links: the data
/// plane (recode, frame codec, peeling) dominates and nothing is planned.
WorkloadInputs bulk_recode(std::uint64_t seed) {
  WorkloadInputs in;
  in.name = "bulk-recode";
  in.content = random_bytes(512 * 1024, util::mix64(seed ^ 0xb01));
  in.options.block_size = 1024;
  in.options.session_seed = 0xb01c;
  in.options.flow_control = true;
  in.peers = 64;
  in.fed_below = 16;
  in.mirrors = 1;
  in.max_ticks = 20000;
  return in;
}

/// A generated .scn: heterogeneous access mix, burst loss, arrivals, crashes,
/// a blackout and the failure-detection timers, with full-pool admission.
WorkloadInputs churn_mixed(std::uint64_t seed) {
  constexpr std::size_t kPeers = 300;
  constexpr std::size_t kFed = 30;
  util::Xoshiro256 rng(0xc4a);
  std::ostringstream scn;
  scn << "name churn-mixed\n"
      << "peers " << kPeers << "\nfed " << kFed << "\n"
      << "content_bytes 65536\nblock_size 512\n"
      << "seed 50501\n"
      << "refresh_interval 60\nflow_control 1\n"
      << "handshake_retry_ticks 24\nliveness_timeout_ticks 8\n"
      << "handshake_backoff_factor 2\nhandshake_backoff_cap_ticks 64\n"
      << "max_handshake_retries 8\nsuspect_ttl_ticks 60\nmax_ticks 40000\n"
      << "profile fiber up 4000 down 4000 delay 1\n"
      << "profile dsl up 600 down 3000 delay 3 jitter 1 loss 0.005\n"
      << "profile mobile up 400 down 1500 delay 6 jitter 4 "
         "ge 0.01 0.4 0.02 0.25\n"
      << "access default dsl\n";
  for (std::size_t p = 0; p < kPeers; ++p) {
    const std::uint64_t draw = rng.next_below(10);
    const char* profile = draw < 2 ? "fiber" : draw < 7 ? "dsl" : "mobile";
    scn << "access " << p << " " << profile << "\n";
  }
  // 100 arrivals: a flash ramp and a Poisson trickle.
  scn << "arrival flash " << 150 + rng.next_below(50) << " 60 ramp 100\n"
      << "arrival poisson " << 100 + rng.next_below(50) << " 40 0.25 "
      << 1 + rng.next_below(1000000) << "\n";
  // Two crash/restart pairs on initial peers that have no origin feed.
  std::vector<std::size_t> crashed;
  while (crashed.size() < 2) {
    const std::size_t peer = kFed + rng.next_below(kPeers - kFed);
    if (std::find(crashed.begin(), crashed.end(), peer) == crashed.end()) {
      crashed.push_back(peer);
    }
  }
  for (const std::size_t peer : crashed) {
    const std::uint64_t at = 100 + rng.next_below(200);
    scn << "crash " << at << " " << peer << "\n"
        << "restart " << at + 150 + rng.next_below(150) << " " << peer << "\n";
  }
  const std::uint64_t blackout_from = 80 + rng.next_below(100);
  scn << "blackout " << blackout_from << " " << blackout_from + 200 << " 0 "
      << kFed + rng.next_below(kPeers - kFed) << "\n"
      << "gate deadline 4700\ngate max_failed_sessions 30\n"
      << "gate control_budget 24000000\n";

  WorkloadInputs in;
  in.name = "churn-mixed";
  in.scenario_text = scn.str();
  in.content = random_bytes(65536, util::mix64(seed ^ 0xc4c));
  return in;
}

WorkloadInputs make_inputs(const std::string& workload, std::uint64_t seed) {
  if (workload == "swarm-wide") return swarm_wide(seed);
  if (workload == "bulk-recode") return bulk_recode(seed);
  if (workload == "churn-mixed") return churn_mixed(seed);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

// --- Spans -------------------------------------------------------------------

/// In-memory span log: name, start/end relative to the trace origin, and the
/// index of the enclosing span (-1 at the top). Written out at the end.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  template <typename Fn>
  auto record(const char* name, int parent, Fn&& fn) {
    if (!enabled_) return fn();
    const auto start = Clock::now();
    auto result = fn();
    spans_.push_back({name, parent, start, Clock::now()});
    return result;
  }
  /// Opens a parent span by hand (closed with `close`).
  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, -1, Clock::now(), Clock::time_point{}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end = Clock::now();
  }
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const auto& span : spans_) {
      if (name == span.name) sum += seconds_between(span.start, span.end);
    }
    return sum;
  }
  std::size_t count(const std::string& name) const {
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& s) { return name == s.name; }));
  }
  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer), "%s[\"%s\", %.9f, %.9f, %d]",
                    i ? ", " : "", spans_[i].name,
                    seconds_between(origin_, spans_[i].start),
                    seconds_between(origin_, spans_[i].end), spans_[i].parent);
      out += buffer;
    }
    return out + "]";
  }

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- Set-up, run, verify -----------------------------------------------------

struct Swarm {
  std::optional<core::CompiledScenario> compiled;
  std::unique_ptr<core::ShardedDelivery> engine;
  /// The seed's content; a compiled scenario's own content is replaced.
  const std::vector<std::uint8_t>* content_bytes = nullptr;
  std::vector<bool> fed;
  std::size_t expected_peers = 0;
  std::uint64_t max_ticks = 0;

  const std::vector<std::uint8_t>& content() const { return *content_bytes; }
};

/// Set-up as the benchmark times it: scenario compile (churn-mixed), engine
/// construction, and the initial add_peer calls.
Swarm set_up(const WorkloadInputs& in, SpanLog& spans) {
  Swarm swarm;
  swarm.content_bytes = &in.content;
  const core::DeliveryOptions* options = &in.options;
  spans.record("setup.compile", -1, [&] {
    if (!in.scenario_text.empty()) {
      swarm.compiled = core::compile_scenario(
          core::Scenario::parse_text(in.scenario_text, in.name));
      options = &swarm.compiled->options;
    }
    return 0;
  });
  swarm.max_ticks = swarm.compiled ? swarm.compiled->max_ticks : in.max_ticks;
  spans.record("setup.engine", -1, [&] {
    swarm.engine = std::make_unique<core::ShardedDelivery>(
        swarm.content(), *options, core::ShardOptions{1});
    for (std::size_t m = 0; m < in.mirrors; ++m) swarm.engine->add_mirror();
    return 0;
  });
  spans.record("setup.admit", -1, [&] {
    if (swarm.compiled) {
      core::seed_scenario_peers(*swarm.engine, *swarm.compiled);
      swarm.fed.assign(swarm.compiled->peers, false);
      for (std::size_t p = 0; p < swarm.compiled->fed; ++p) swarm.fed[p] = true;
      swarm.expected_peers =
          swarm.compiled->peers + swarm.compiled->total_joins;
    } else {
      for (std::size_t p = 0; p < in.peers; ++p) {
        const bool fed = (in.fed_every > 0 && p % in.fed_every == 0) ||
                         p < in.fed_below;
        swarm.engine->add_peer("peer" + std::to_string(p), fed);
        swarm.fed.push_back(fed);
      }
      swarm.expected_peers = in.peers;
    }
    return 0;
  });
  return swarm;
}

bool swarm_done(const Swarm& swarm) {
  const auto& engine = *swarm.engine;
  if (engine.peer_count() < swarm.expected_peers) return false;
  for (std::size_t p = 0; p < engine.peer_count(); ++p) {
    if (!engine.peer_complete(p)) return false;
  }
  return true;
}

struct Verdict {
  std::size_t peers = 0;
  std::size_t survivors = 0;
  std::size_t completed_correct = 0;  // any peer, down or not
  std::size_t survivors_failed = 0;   // survivors without correct content
  std::size_t wrong_bytes = 0;        // completed peers whose bytes differ
  std::size_t failed_sessions = 0;
  std::vector<std::size_t> survivor_ticks;  // unfinished survivors: max_ticks
  bool gates_pass = true;
  std::string digest;
  core::ShardedDelivery::LinkTotals totals;
};

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Byte-compares every completed peer with the generated content, evaluates
/// the scenario's own gates, and digests the trajectory (completion ticks,
/// link totals, data frames, failed sessions).
Verdict verify(Swarm& swarm) {
  auto& engine = *swarm.engine;
  Verdict v;
  v.peers = engine.peer_count();
  v.totals = engine.link_totals();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash = fnv1a(hash, v.peers);
  for (std::size_t p = 0; p < v.peers; ++p) {
    const bool complete = engine.peer_complete(p);
    const bool correct = complete && engine.peer_content(p) == swarm.content();
    if (complete && !correct) ++v.wrong_bytes;
    if (correct) ++v.completed_correct;
    v.failed_sessions += engine.session_result(p).failed_peers.size();
    hash = fnv1a(hash, engine.peer_completion_tick(p));
    if (!engine.peer_down(p)) {
      ++v.survivors;
      if (!correct) ++v.survivors_failed;
      v.survivor_ticks.push_back(complete ? engine.peer_completion_tick(p)
                                          : swarm.max_ticks);
    }
  }
  for (const std::uint64_t value :
       {v.totals.control_bytes, v.totals.control_frames, v.totals.data_bytes,
        v.totals.data_frames, v.failed_sessions}) {
    hash = fnv1a(hash, value);
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(hash));
  v.digest = digest;
  if (swarm.compiled) {
    v.gates_pass = core::evaluate_gates(core::harvest_scenario(engine),
                                        *swarm.compiled)
                       .pass();
  }
  std::sort(v.survivor_ticks.begin(), v.survivor_ticks.end());
  return v;
}

void report_exact(Json& out, const Verdict& v, std::size_t content_bytes) {
  const std::size_t n = v.survivor_ticks.size();
  out.integer("peers", v.peers);
  out.integer("survivors", v.survivors);
  out.integer("completed_correct", v.completed_correct);
  out.integer("survivors_failed", v.survivors_failed);
  out.integer("wrong_bytes", v.wrong_bytes);
  out.boolean("gates_pass", v.gates_pass);
  out.string("digest", v.digest);
  // Lower median (nearest rank): an integer tick, exact for a given seed.
  out.integer("completion_ticks_p50", n ? v.survivor_ticks[(n - 1) / 2] : 0);
  out.integer("completion_ticks_max", n ? v.survivor_ticks.back() : 0);
  out.number("data_overhead",
             v.completed_correct
                 ? static_cast<double>(v.totals.data_bytes) /
                       (static_cast<double>(content_bytes) *
                        static_cast<double>(v.completed_correct))
                 : 0.0);
  out.number("control_bytes_per_peer",
             v.peers ? static_cast<double>(v.totals.control_bytes) /
                           static_cast<double>(v.peers)
                     : 0.0);
  out.number("failed_fraction",
             v.survivors ? static_cast<double>(v.survivors_failed) /
                               static_cast<double>(v.survivors)
                         : 1.0);
}

/// Restarts the kernel's peak-RSS count (VmHWM) from the current RSS.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (clear.fail()) throw std::runtime_error("cannot reset peak RSS");
}

/// Peak RSS since the last reset_peak_rss, in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- Host speed --------------------------------------------------------------

// A shared host swings single-thread speed by up to 2x in phases that last
// minutes, and every wall time in a run moves with it. Two fixed kernels,
// built from this file alone and never from src/, time that speed next to
// each repetition: one bound by the core's own caches, one by memory beyond
// them. A change to the library cannot move either.

constexpr int kCacheKernelOps = 400000;
constexpr double kCacheKernelRefS = 0.025;
constexpr int kMemoryKernelOps = 120000;
constexpr double kMemoryKernelRefS = 0.047;

std::uint64_t xorshift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  return x ^ (x << 17);
}

/// 1 KiB XORs between blocks of a 512 KiB pool picked by xorshift, each
/// followed by a write to a 256 KiB table.
double time_cache_kernel() {
  std::vector<std::uint64_t> pool(512 * 1024 / 8, 1);
  std::vector<std::uint32_t> table(1 << 16, 0);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kCacheKernelOps; ++i) {
    x = xorshift(x);
    std::uint64_t* dst = &pool[(x % 512) * 128];
    const std::uint64_t* src = &pool[((x >> 20) % 512) * 128];
    for (std::uint64_t w = 0; w < 128; ++w) dst[w] ^= src[w] + w;
    auto& slot = table[(x >> 32) & 0xffff];
    acc += slot;
    slot = static_cast<std::uint32_t>(x);
  }
  const double seconds = seconds_between(start, Clock::now());
  volatile std::uint64_t sink = acc + pool[0];
  (void)sink;
  return seconds;
}

/// 1 KiB XORs between blocks of a 64 MiB pool picked by xorshift, each
/// followed by four probes of a 64k-entry hash map.
double time_memory_kernel() {
  std::vector<std::uint64_t> pool(64u * 1024 * 1024 / 8, 3);
  std::unordered_map<std::uint64_t, std::uint32_t> map;
  for (std::uint32_t i = 0; i < 65536; ++i) map[util::mix64(i)] = i;
  std::uint64_t x = 0x1234567ULL;
  std::uint64_t acc = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kMemoryKernelOps; ++i) {
    x = xorshift(x);
    std::uint64_t* dst = &pool[(x % 65536) * 128];
    const std::uint64_t* src = &pool[((x >> 20) % 65536) * 128];
    for (std::uint64_t w = 0; w < 128; ++w) dst[w] ^= src[w];
    for (int k = 0; k < 4; ++k) {
      const auto it = map.find(util::mix64((x >> (8 * k)) & 0xffff));
      acc += it == map.end() ? 0 : it->second;
    }
  }
  const double seconds = seconds_between(start, Clock::now());
  volatile std::uint64_t sink = acc + pool[0];
  (void)sink;
  return seconds;
}

/// Host speed now relative to the reference: the geometric mean of the two
/// kernels' reference time / measured time. 0.5 means everything currently
/// takes twice as long as on the reference host state.
double host_speed_index() {
  return std::sqrt(kCacheKernelRefS / time_cache_kernel() *
                   kMemoryKernelRefS / time_memory_kernel());
}

// --- run mode ----------------------------------------------------------------

/// One untraced repetition: the host speed index, repeated set-up (median
/// reported; the last swarm is run), the run, and verification. Prints one
/// JSON line; its times are wall times, as measured.
void run_once(const WorkloadInputs& in, std::size_t setup_reps) {
  // Before any swarm exists; peak RSS is then counted from after the kernels.
  const double speed = host_speed_index();
  reset_peak_rss();
  SpanLog off(false);
  std::vector<double> setups;
  Swarm swarm;
  for (std::size_t r = 0; r < setup_reps; ++r) {
    swarm = Swarm{};
    const auto start = Clock::now();
    swarm = set_up(in, off);
    setups.push_back(seconds_between(start, Clock::now()));
  }
  std::sort(setups.begin(), setups.end());

  const auto start = Clock::now();
  swarm.engine->run_until(swarm.max_ticks);
  const double run_s = seconds_between(start, Clock::now());
  const Verdict v = verify(swarm);

  Json out;
  out.string("mode", "run");
  out.number("speed_index", speed);
  out.number("setup_wall_s", setups[setups.size() / 2]);
  out.number("run_s", run_s);
  out.number("decoded_mb_per_wall_s",
             static_cast<double>(swarm.content().size()) *
                 static_cast<double>(v.completed_correct) / run_s / 1e6);
  out.number("peak_rss_mb", peak_rss_mib());
  report_exact(out, v, swarm.content().size());
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// --- Ladders -----------------------------------------------------------------

/// A sender/receiver pair built the way a Recode/BF download starts: the
/// sender holds 1.25x the block count from the primary origin stream, the
/// receiver a quarter from the mirror stream, and the sender's domain is its
/// ids that miss the receiver's Bloom filter, cut to the requested count.
struct LadderFixture {
  LadderFixture(const std::vector<std::uint8_t>& content,
                std::size_t block_size, std::uint64_t session_seed)
      : distribution(core::delivery_distribution(content.size(), block_size)),
        origin(content, block_size, distribution, session_seed, 0),
        mirror(content, block_size, distribution, session_seed, 1),
        blocks(origin.block_count()),
        sender("sender", origin.parameters(), distribution) {
    for (std::size_t i = 0; i < blocks + blocks / 4 + 1; ++i) {
      sender.receive_encoded(origin.encode(i));
    }
  }

  std::unique_ptr<core::Peer> fresh_receiver() const {
    auto receiver = std::make_unique<core::Peer>(
        "receiver", origin.parameters(), distribution);
    for (std::size_t i = 0; i < blocks / 4; ++i) {
      receiver->receive_encoded(mirror.encode(i));
    }
    return receiver;
  }
  /// Symbols the engine's planner would request for one session.
  std::size_t requested() const {
    const std::size_t target = static_cast<std::size_t>(1.07 * blocks);
    const std::size_t held = blocks / 4;
    return std::max<std::size_t>(1, (target > held ? target - held : 1) * 5 / 4);
  }

  codec::DegreeDistribution distribution;
  core::OriginServer origin;
  core::OriginServer mirror;
  std::size_t blocks;
  core::Peer sender;
};

/// Receives everything a batch of sends put on the link, advancing a timed
/// link's clock by `span` first.
void drain_link(wire::ChannelLink& link, std::uint64_t& now,
                std::uint64_t span) {
  if (link.timed()) {
    now += span;
    link.advance_to(now);
  }
  while (link.b().receive_frame()) {
  }
}

struct DataLadder {
  double encode_ns = 0, recode_ns = 0, send_ns = 0, receive_ns = 0;
  double hop_ns = 0, absorb_ns = 0, symbol_ns = 0, udp_ns = 0;
  double unexplained = 0;
  std::size_t udp_lost = 0;
};

DataLadder data_ladder(LadderFixture& fx, const core::DeliveryOptions& opt,
                       const wire::ChannelConfig& link_config, double budget_s) {
  DataLadder out;
  constexpr std::size_t kBatch = 32;
  const std::size_t frame_hint = core::data_frame_bytes_hint(opt.block_size);
  const std::uint64_t drain_span =
      link_config.delay_ticks * std::max<std::uint64_t>(link_config.hops, 1) +
      link_config.jitter_ticks + 2 +
      (link_config.rate_bytes_per_tick > 0
           ? static_cast<std::uint64_t>(
                 std::ceil(kBatch * static_cast<double>(frame_hint) /
                           link_config.rate_bytes_per_tick))
           : 0);

  // Origin encode: fresh ids, one symbol each.
  {
    std::uint64_t id = 1u << 20;
    std::size_t n = 0;
    volatile std::uint8_t sink = 0;
    const auto start = Clock::now();
    do {
      for (std::size_t i = 0; i < 64; ++i) sink = sink ^ fx.origin.encode(id++).payload[0];
      n += 64;
    } while (seconds_between(start, Clock::now()) < budget_s * 0.1);
    out.encode_ns = seconds_between(start, Clock::now()) * 1e9 / n;
  }

  // Decomposed path, batch by batch over whole downloads: recode, Pipe send,
  // Pipe receive, the same frames over the workload's ChannelLink, absorb.
  util::Xoshiro256 rng(opt.session_seed ^ 0x1add);
  double t_recode = 0, t_send = 0, t_receive = 0, t_link = 0, t_absorb = 0;
  std::size_t symbols = 0;
  const auto ladder_start = Clock::now();
  wire::ChannelConfig config = link_config;
  config.seed = opt.session_seed ^ 0x11aa;
  while (symbols == 0 ||
         seconds_between(ladder_start, Clock::now()) < budget_s * 0.45) {
    auto receiver = fx.fresh_receiver();
    auto bloom = receiver->bloom_summary();
    std::vector<std::uint64_t> domain =
        reconcile::bloom_set_difference(fx.sender.symbol_ids(), bloom);
    if (domain.size() > fx.requested()) {
      util::shuffle(domain, rng);
      domain.resize(fx.requested());
      std::sort(domain.begin(), domain.end());
    }
    const auto dist = codec::DegreeDistribution::robust_soliton(
                          std::max<std::size_t>(domain.size(), 2))
                          .truncated(codec::kDefaultRecodeDegreeLimit);
    wire::Pipe pipe(config.mtu);
    wire::ChannelLink link(config);
    std::uint64_t now = 0;
    std::vector<codec::RecodedSymbol> batch(kBatch);
    std::size_t sent = 0;
    while (!receiver->has_content() && sent < 4 * fx.blocks + kBatch) {
      auto t0 = Clock::now();
      for (auto& symbol : batch) {
        fx.sender.recode_from_into(symbol, domain, dist.sample(rng), rng);
      }
      auto t1 = Clock::now();
      for (const auto& symbol : batch) {
        pipe.a().send(codec::RecodedSymbolView(symbol));
      }
      auto t2 = Clock::now();
      std::size_t received = 0;
      while (auto frame = pipe.b().receive_frame()) ++received;
      auto t3 = Clock::now();
      for (const auto& symbol : batch) {
        link.a().send(codec::RecodedSymbolView(symbol));
      }
      drain_link(link, now, drain_span);
      auto t4 = Clock::now();
      for (const auto& symbol : batch) {
        receiver->receive_recoded(codec::RecodedSymbolView(symbol));
      }
      auto t5 = Clock::now();
      t_recode += seconds_between(t0, t1);
      t_send += seconds_between(t1, t2);
      t_receive += seconds_between(t2, t3);
      t_link += seconds_between(t3, t4);
      t_absorb += seconds_between(t4, t5);
      sent += kBatch;
      if (received != kBatch) throw std::runtime_error("ladder: pipe lost frames");
    }
    symbols += sent;
  }
  const double per = 1e9 / static_cast<double>(symbols);
  out.recode_ns = t_recode * per;
  out.send_ns = t_send * per;
  out.receive_ns = t_receive * per;
  out.hop_ns = (t_link - t_send - t_receive) * per;
  out.absorb_ns = t_absorb * per;

  // Top rung: a Recode/BF endpoint pair over the same link, transfer phase
  // only (the handshake has its own control-plane rung).
  core::SessionOptions session;
  session.strategy = opt.strategy;
  session.flow_control = opt.flow_control;
  session.handshake_retry_ticks = opt.handshake_retry_ticks;
  session.requested_symbols = fx.requested();
  double t_transfer = 0;
  std::size_t transfer_symbols = 0;
  const auto top_start = Clock::now();
  for (int session_count = 0;
       session_count < 10000 &&
       (transfer_symbols == 0 ||
        seconds_between(top_start, Clock::now()) < budget_s * 0.3);
       ++session_count) {
    auto receiver_peer = fx.fresh_receiver();
    config.seed = rng();
    session.seed = rng();
    wire::ChannelLink link(config);
    core::SenderEndpoint sender(fx.sender, session, link.a());
    core::ReceiverEndpoint receiver(*receiver_peer, session, link.b());
    receiver.start();
    std::uint64_t now = 0;
    const auto step = [&](bool send) {
      ++now;
      link.advance_to(now);
      receiver.advance_to(now);
      sender.tick();
      if (send && (!link.timed() || link.a_send_ready_at(frame_hint) <= now)) {
        sender.send_symbol();
      }
      receiver.tick();
    };
    while (!(sender.transfer_active() && receiver.transfer_started()) &&
           now < 10000) {
      step(false);
    }
    const std::size_t before = sender.symbols_sent();
    const auto start = Clock::now();
    const std::uint64_t cap = now + 20 * fx.blocks + 1000;
    while (!receiver.complete() && !sender.satisfied() && now < cap) step(true);
    t_transfer += seconds_between(start, Clock::now());
    transfer_symbols += sender.symbols_sent() - before;
  }
  out.symbol_ns = t_transfer * 1e9 / static_cast<double>(std::max<std::size_t>(transfer_symbols, 1));
  const double explained = out.recode_ns + out.send_ns + out.hop_ns +
                           out.receive_ns + out.absorb_ns;
  out.unexplained = std::fabs(out.symbol_ns - explained) / out.symbol_ns;

  // Real UDP over a 127.0.0.1 socket pair (host loopback, not a real link).
  {
    auto socket_a = wire::UdpSocket::bind("127.0.0.1", 0);
    auto socket_b = wire::UdpSocket::bind("127.0.0.1", 0);
    const auto port_a = socket_a.local_port();
    const auto port_b = socket_b.local_port();
    socket_a.connect("127.0.0.1", port_b);
    socket_b.connect("127.0.0.1", port_a);
    wire::UdpTransport a(std::move(socket_a), config.mtu);
    wire::UdpTransport b(std::move(socket_b), config.mtu);
    codec::RecodedSymbol symbol;
    fx.sender.recode_from_into(symbol, fx.sender.symbol_ids(), 3, rng);
    std::size_t n = 0;
    const auto start = Clock::now();
    do {
      for (std::size_t i = 0; i < wire::UdpTransport::kBurst; ++i) {
        a.send(codec::RecodedSymbolView(symbol));
      }
      a.pump();
      std::size_t got = 0;
      for (int spin = 0; spin < 100000 && got < wire::UdpTransport::kBurst;
           ++spin) {
        while (b.receive_frame()) ++got;
      }
      out.udp_lost += wire::UdpTransport::kBurst - got;
      n += wire::UdpTransport::kBurst;
    } while (seconds_between(start, Clock::now()) < budget_s * 0.15);
    out.udp_ns = seconds_between(start, Clock::now()) * 1e9 / n;
  }
  return out;
}

struct ControlLadder {
  double update_ns = 0, resemblance_ns = 0, roundtrip_ns = 0;
  double bloom_build_ns = 0, bloom_query_ns = 0, handshake_ns = 0;
};

template <typename Fn>
double time_per_op(double budget_s, std::size_t ops_per_call, Fn&& fn) {
  std::size_t calls = 0;
  const auto start = Clock::now();
  do {
    fn();
    ++calls;
  } while (seconds_between(start, Clock::now()) < budget_s);
  return seconds_between(start, Clock::now()) * 1e9 /
         static_cast<double>(calls * ops_per_call);
}

ControlLadder control_ladder(LadderFixture& fx,
                             const core::DeliveryOptions& opt,
                             const wire::ChannelConfig& link_config,
                             double budget_s) {
  ControlLadder out;
  const std::size_t n = fx.blocks;
  std::vector<std::uint64_t> ids(fx.sender.symbol_ids().begin(),
                                 fx.sender.symbol_ids().begin() + n);
  volatile double sink = 0;
  out.update_ns = time_per_op(budget_s / 6, n, [&] {
    sketch::MinwiseSketch s(core::kSymbolIdUniverse);
    for (const auto id : ids) s.update(id);
    sink = sink + static_cast<double>(s.minima()[0] & 1);
  });
  auto receiver = fx.fresh_receiver();
  out.resemblance_ns = time_per_op(budget_s / 6, 64, [&] {
    for (int i = 0; i < 64; ++i) {
      sink = sink + sketch::MinwiseSketch::resemblance(fx.sender.sketch(),
                                                       receiver->sketch());
    }
  });
  out.roundtrip_ns = time_per_op(budget_s / 6, 1, [&] {
    const auto bytes = fx.sender.sketch().serialize();
    sink = sink + static_cast<double>(
                      sketch::MinwiseSketch::deserialize(bytes).minima()[0] & 1);
  });
  out.bloom_build_ns = time_per_op(budget_s / 6, n, [&] {
    auto bloom = filter::BloomFilter::with_bits_per_element(n, 8.0);
    bloom.insert_all(ids);
    sink = sink + static_cast<double>(bloom.inserted_count());
  });
  const auto bloom = fx.sender.bloom_summary();
  out.bloom_query_ns = time_per_op(budget_s / 6, ids.size() * 2, [&] {
    std::size_t hits = 0;
    for (const auto id : ids) hits += bloom.contains(id) + bloom.contains(id ^ 1);
    sink = sink + static_cast<double>(hits);
  });

  // Handshake: Hello + sketch + Bloom summary + Request and the sender's
  // reply, over the workload's link, until both ends are in transfer.
  core::SessionOptions session;
  session.strategy = opt.strategy;
  session.flow_control = opt.flow_control;
  session.handshake_retry_ticks = opt.handshake_retry_ticks;
  session.requested_symbols = fx.requested();
  wire::ChannelConfig config = link_config;
  util::Xoshiro256 rng(opt.session_seed ^ 0xa11);
  out.handshake_ns = time_per_op(budget_s / 6, 1, [&] {
    config.seed = rng();
    session.seed = rng();
    wire::ChannelLink link(config);
    core::SenderEndpoint sender(fx.sender, session, link.a());
    core::ReceiverEndpoint rx(*receiver, session, link.b());
    rx.start();
    for (std::uint64_t now = 1;
         now < 10000 && !(sender.transfer_active() && rx.transfer_started());
         ++now) {
      link.advance_to(now);
      rx.advance_to(now);
      sender.tick();
      rx.tick();
    }
  });
  return out;
}

// --- trace mode --------------------------------------------------------------

/// Wall-clock budget of the data-path and control-plane ladders.
constexpr double kLadderSeconds = 3.0;

/// One traced repetition; the ladders run when `ladders` is set.
void trace_once(const WorkloadInputs& in, bool ladders) {
  SpanLog spans(true);
  Swarm swarm = set_up(in, spans);
  auto& engine = *swarm.engine;
  const std::uint64_t refresh =
      std::max<std::size_t>(1, swarm.compiled
                                   ? swarm.compiled->options.refresh_interval
                                   : in.options.refresh_interval);
  double mem_decoder = 0, mem_endpoint = 0, mem_link = 0;
  const auto audit = [&] {
    const core::MemoryAudit m = engine.memory_audit();
    const double peers = static_cast<double>(std::max<std::size_t>(m.peers, 1));
    mem_decoder = std::max(mem_decoder, static_cast<double>(m.decoder_bytes) / peers);
    mem_endpoint = std::max(mem_endpoint, static_cast<double>(m.endpoint_bytes) / peers);
    mem_link = std::max(mem_link, static_cast<double>(m.link_bytes) / peers);
  };
  // The run, split at refresh boundaries: run_until(kR+1) is the refresh
  // tick, run_until((k+1)R) the epoch after it. The memory audit is read at
  // each boundary, outside the spans.
  const int run_span = spans.open("engine.run");
  for (std::uint64_t k = 0; !swarm_done(swarm) && engine.ticks() < swarm.max_ticks;
       ++k) {
    const std::uint64_t tick_end = std::min(k * refresh + 1, swarm.max_ticks);
    const std::uint64_t epoch_end = std::min((k + 1) * refresh, swarm.max_ticks);
    if (engine.ticks() < tick_end) {
      spans.record("engine.refresh_tick", run_span,
                   [&] { return engine.run_until(tick_end); });
    }
    if (!swarm_done(swarm) && engine.ticks() < epoch_end) {
      spans.record("engine.epoch", run_span,
                   [&] { return engine.run_until(epoch_end); });
    }
    audit();
  }
  spans.close(run_span);
  const Verdict v = spans.record("verify", -1, [&] { return verify(swarm); });

  Json out;
  out.string("mode", "trace");
  const double refresh_s = spans.total("engine.refresh_tick");
  const double epoch_s = spans.total("engine.epoch");
  // The audits between spans are bookkeeping, not the run.
  const double run_s = refresh_s + epoch_s;
  out.number("run_s", run_s);
  out.number("core.admission.refresh_tick_s", refresh_s);
  out.number("core.admission.refresh_share", refresh_s / run_s);
  out.integer("core.admission.refreshes", spans.count("engine.refresh_tick"));
  out.number("core.engine.epoch_s", epoch_s);
  const std::uint64_t executed = engine.ticks() - engine.ticks_skipped();
  out.number("core.engine.ns_per_peer_tick",
             run_s * 1e9 / (static_cast<double>(engine.peer_count()) *
                            static_cast<double>(std::max<std::uint64_t>(executed, 1))));
  out.integer("core.engine.ticks", engine.ticks());
  out.integer("core.engine.ticks_skipped", engine.ticks_skipped());
  out.integer("core.engine.events", engine.events_processed());
  const auto& planner = engine.planner_stats();
  out.number("core.engine.planner_ops_per_tick",
             static_cast<double>(planner.ops()) /
                 static_cast<double>(std::max<std::uint64_t>(executed, 1)));
  out.integer("core.engine.planner_full_rebuilds", planner.full_rebuilds);
  out.number("core.engine.mem.decoder_bytes_per_peer", mem_decoder);
  out.number("core.engine.mem.endpoint_bytes_per_peer", mem_endpoint);
  out.number("core.engine.mem.link_bytes_per_peer", mem_link);

  out.integer("wire.transport.data_frames", v.totals.data_frames);
  out.integer("wire.transport.data_bytes", v.totals.data_bytes);
  out.integer("wire.transport.control_frames", v.totals.control_frames);
  out.integer("wire.transport.control_bytes", v.totals.control_bytes);
  out.integer("wire.transport.frames_refused", v.totals.frames_refused);
  // Distinct symbols held by peers without an origin feed (everything they
  // hold came over peer links) per data frame: a lower bound on the useful
  // share, since fed peers' link gains cannot be told from their feed.
  std::uint64_t link_symbols = 0;
  std::uint64_t origin_symbols = 0;  // one per tick before completion
  codec::DecoderStats codec_stats;
  for (std::size_t p = 0; p < engine.peer_count(); ++p) {
    codec_stats += engine.peer(p).decoder_stats();
    const bool fed = p < swarm.fed.size() && swarm.fed[p];
    if (fed) {
      const std::size_t done = engine.peer_completion_tick(p);
      origin_symbols += done ? done : engine.ticks();
    } else {
      link_symbols += engine.peer(p).symbol_count();
    }
  }
  out.number("core.endpoint.useful_fraction",
             static_cast<double>(link_symbols) /
                 static_cast<double>(std::max<std::size_t>(v.totals.data_frames, 1)));
  out.integer("core.endpoint.failed_sessions", v.failed_sessions);
  out.integer("codec.equations_added", codec_stats.equations_added);
  out.integer("codec.substitutions", codec_stats.substitutions);
  out.number("codec.redundant_fraction",
             static_cast<double>(codec_stats.redundant) /
                 static_cast<double>(std::max<std::uint64_t>(codec_stats.equations_added, 1)));
  out.integer("codec.rows_folded", codec_stats.rows_folded);
  out.integer("codec.row_reductions", codec_stats.row_reductions);
  out.integer("origin_symbols", origin_symbols);
  report_exact(out, v, swarm.content().size());

  // Ladders at the workload's block size, strategy and link configuration.
  if (ladders) {
    const core::DeliveryOptions& options =
        swarm.compiled ? swarm.compiled->options : in.options;
    const wire::ChannelConfig link_config =
        options.link_config ? options.link_config(1, 0) : options.link;
    LadderFixture fx(swarm.content(), options.block_size, options.session_seed);
    const DataLadder data =
        data_ladder(fx, options, link_config, kLadderSeconds * 0.7);
    const ControlLadder control =
        control_ladder(fx, options, link_config, kLadderSeconds * 0.3);
    out.number("core.origin.encode_ns", data.encode_ns);
    out.number("core.peer.recode_ns", data.recode_ns);
    out.number("wire.transport.send_ns", data.send_ns);
    out.number("wire.channel.hop_ns", data.hop_ns);
    out.number("wire.transport.receive_ns", data.receive_ns);
    out.number("core.peer.absorb_ns", data.absorb_ns);
    out.number("core.endpoint.symbol_ns", data.symbol_ns);
    out.number("ladder.unexplained_fraction", data.unexplained);
    out.number("wire.udp.roundtrip_ns", data.udp_ns);
    out.integer("wire.udp.lost", data.udp_lost);
    out.number("sketch.update_ns", control.update_ns);
    out.number("sketch.resemblance_ns", control.resemblance_ns);
    out.number("sketch.roundtrip_ns", control.roundtrip_ns);
    out.number("filter.bloom_build_ns_per_id", control.bloom_build_ns);
    out.number("filter.bloom_query_ns", control.bloom_query_ns);
    out.number("core.endpoint.handshake_ns", control.handshake_ns);
  }
  out.raw("spans", spans.json());
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode = "run";
  std::uint64_t seed = 1;
  std::size_t setup_reps = 9;
  double seconds = 0.0;
  std::size_t min_reps = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::stoull(value);
    else if (key == "--mode") mode = value;
    else if (key == "--setup-reps") setup_reps = std::max<std::size_t>(1, std::stoul(value));
    else if (key == "--seconds") seconds = std::stod(value);
    else if (key == "--min-reps") min_reps = std::max<std::size_t>(1, std::stoul(value));
    else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  try {
    const WorkloadInputs in = make_inputs(workload, seed);
    if (mode != "run" && mode != "trace") {
      std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
      return 2;
    }
    // Repetitions share the process, so later ones run on a warm allocator.
    const auto start = Clock::now();
    for (std::size_t r = 0;
         r < min_reps || seconds_between(start, Clock::now()) < seconds; ++r) {
      if (mode == "run") {
        run_once(in, setup_reps);
      } else {
        trace_once(in, r == 0);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_swarm: %s\n", e.what());
    return 1;
  }
}
