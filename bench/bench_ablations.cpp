// Ablations for the design choices DESIGN.md calls out:
//   A1  recoding degree cap (the paper fixes 50)
//   A2  Recode/BF restricted-domain allowance (the "appropriate small size")
//   A3  CPI solve-time growth with discrepancy (the Theta(d^3) of §5.1)
//   A4  sketch size vs Recode/MW end-to-end overhead
//   A5  flat-arena vs list-based peeling solver (full-decode wall time)
#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "codec/block_source.hpp"
#include "codec/degree.hpp"
#include "codec/encoder.hpp"
#include "codec/peeling.hpp"
#include "solver_reference.hpp"
#include "overlay/scenario.hpp"
#include "overlay/sim_config.hpp"
#include "overlay/transfer.hpp"
#include "reconcile/cpi.hpp"
#include "util/random.hpp"

namespace {

using namespace icd;
using Clock = std::chrono::steady_clock;

void ablate_degree_cap() {
  std::printf("\n=== Ablation A1: recode degree cap (compact, corr=0.3, "
              "Recode strategy) ===\n");
  std::printf("%8s %12s\n", "cap", "overhead");
  for (const std::size_t cap : {2u, 5u, 10u, 25u, 50u, 100u}) {
    double total = 0;
    constexpr int kTrials = 3;
    for (int t = 0; t < kTrials; ++t) {
      util::Xoshiro256 rng(600 + t);
      overlay::SimConfig config;
      config.n = 800;
      config.recode_degree_limit = cap;
      config.seed = 6000 + t;
      const auto scenario = overlay::make_pair_scenario(
          config.n, overlay::kCompactStretch, 0.3, rng);
      total += overlay::run_pair_transfer(scenario,
                                          overlay::Strategy::kRecode, config)
                   .overhead();
    }
    std::printf("%8zu %12.3f\n", cap, total / 3);
  }
}

void ablate_domain_allowance() {
  std::printf("\n=== Ablation A2: Recode/BF domain allowance (compact, "
              "corr=0.2) ===\n");
  std::printf("%10s %12s %12s\n", "allowance", "overhead", "completed");
  for (const double allowance : {0.0, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    double total = 0;
    int completed = 0;
    constexpr int kTrials = 3;
    for (int t = 0; t < kTrials; ++t) {
      util::Xoshiro256 rng(700 + t);
      overlay::SimConfig config;
      config.n = 800;
      config.recode_domain_allowance = allowance;
      config.seed = 7000 + t;
      const auto scenario = overlay::make_pair_scenario(
          config.n, overlay::kCompactStretch, 0.2, rng);
      const auto result = overlay::run_pair_transfer(
          scenario, overlay::Strategy::kRecodeBloom, config);
      total += result.overhead();
      completed += result.completed;
    }
    std::printf("%10.2f %12.3f %11d/3\n", allowance, total / 3, completed);
  }
}

void ablate_cpi_cost() {
  std::printf("\n=== Ablation A3: CPI reconciliation cost vs discrepancy "
              "(Theta(d^3) solve) ===\n");
  std::printf("%8s %14s %14s\n", "d", "solve (ms)", "bytes on wire");
  for (const std::size_t d : {8u, 16u, 32u, 64u, 128u, 256u}) {
    util::Xoshiro256 rng(800);
    // Shared base set plus d/2 extras on each side.
    std::vector<std::uint64_t> a, b;
    for (int i = 0; i < 1000; ++i) {
      const auto key = rng.next_below(reconcile::kMaxCpiKey);
      a.push_back(key);
      b.push_back(key);
    }
    for (std::size_t i = 0; i < d / 2; ++i) {
      a.push_back(rng.next_below(reconcile::kMaxCpiKey));
      b.push_back(rng.next_below(reconcile::kMaxCpiKey));
    }
    const auto sketch = reconcile::make_cpi_sketch(a, d + 8);
    const auto start = Clock::now();
    const auto result = reconcile::cpi_reconcile(b, sketch, d);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    std::printf("%8zu %14.2f %14zu %s\n", d, ms, sketch.wire_bytes(),
                result.verified ? "" : "(unverified!)");
  }
}

void ablate_sketch_size() {
  std::printf("\n=== Ablation A4: sketch size vs Recode/MW overhead "
              "(compact, corr=0.35) ===\n");
  std::printf("%8s %12s\n", "minima", "overhead");
  for (const std::size_t perms : {16u, 32u, 64u, 128u, 256u}) {
    double total = 0;
    constexpr int kTrials = 3;
    for (int t = 0; t < kTrials; ++t) {
      util::Xoshiro256 rng(900 + t);
      overlay::SimConfig config;
      config.n = 800;
      config.sketch_permutations = perms;
      config.seed = 9000 + t;
      const auto scenario = overlay::make_pair_scenario(
          config.n, overlay::kCompactStretch, 0.35, rng);
      total += overlay::run_pair_transfer(
                   scenario, overlay::Strategy::kRecodeMinwise, config)
                   .overhead();
    }
    std::printf("%8zu %12.3f\n", perms, total / 3);
  }
}

void ablate_solver_layout() {
  std::printf("\n=== Ablation A5: peeling solver layout (full decode, "
              "robust soliton, 8 B payloads) ===\n");
  std::printf("%8s %14s %14s %10s\n", "blocks", "flat-arena ms",
              "list-based ms", "speedup");
  for (const std::size_t blocks : {1000u, 4000u, 16000u}) {
    util::Xoshiro256 rng(1000);
    std::vector<std::uint8_t> content(blocks * 8);
    for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
    const codec::BlockSource source(content, 8);
    const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
    codec::Encoder encoder(source, dist, 1000);
    std::vector<codec::EncodedSymbol> symbols;
    std::vector<std::vector<std::uint32_t>> neighbors;
    for (std::size_t i = 0; i < 2 * blocks; ++i) {
      symbols.push_back(encoder.next());
      neighbors.push_back(codec::symbol_neighbors(encoder.parameters(), dist,
                                                  symbols.back().id));
    }

    auto start = Clock::now();
    codec::PeelingDecoder<std::uint32_t> flat;
    for (std::size_t i = 0; flat.known_count() < blocks && i < symbols.size();
         ++i) {
      flat.add_equation(std::span<const std::uint32_t>(neighbors[i]),
                        std::span<const std::uint8_t>(symbols[i].payload));
    }
    const double flat_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();

    start = Clock::now();
    codec::ReferencePeelingDecoder<std::uint32_t> list;
    for (std::size_t i = 0; list.known_count() < blocks && i < symbols.size();
         ++i) {
      list.add_equation(std::span<const std::uint32_t>(neighbors[i]),
                        std::span<const std::uint8_t>(symbols[i].payload));
    }
    const double list_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    std::printf("%8zu %14.2f %14.2f %9.2fx\n", blocks, flat_ms, list_ms,
                list_ms / flat_ms);
  }
}

}  // namespace

int main() {
  ablate_degree_cap();
  ablate_domain_allowance();
  ablate_cpi_cost();
  ablate_sketch_size();
  ablate_solver_layout();
  return 0;
}
