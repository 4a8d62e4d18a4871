// The scenario catalog as a tier-1 gate: every `scenarios/*.scn` file is
// compiled and run through the lockstep and the event-loop jump drivers at
// shards=1. Each run must reproduce the scenario's golden trajectory
// (tests/golden/catalog_<name>.golden), every completed peer must hold the
// source bytes, and the scenario's declared pass gates must hold.
#include <gtest/gtest.h>

#include <string>

#include "core/scenario.hpp"
#include "core/sharded_delivery.hpp"
#include "golden.hpp"

namespace icd {
namespace {

TEST(ScenarioCatalog, EveryScenarioMatchesItsGoldenAndPassesItsGates) {
  const auto files =
      core::list_scenario_files(std::string(ICD_SOURCE_DIR) + "/scenarios");
  for (const auto& file : files) {
    SCOPED_TRACE(file);
    const auto compiled =
        core::compile_scenario(core::Scenario::parse_file(file));
    const std::string name = "catalog_" + compiled.name;

    core::ShardedDelivery lockstep(compiled.content, compiled.options,
                                   core::ShardOptions{1});
    core::seed_scenario_peers(lockstep, compiled);
    core::drive_scenario_lockstep(lockstep, compiled);
    golden::expect_matches(name, "lockstep", lockstep, compiled.content);

    core::ShardedDelivery jump(compiled.content, compiled.options,
                               core::ShardOptions{1});
    core::seed_scenario_peers(jump, compiled);
    jump.run(compiled.max_ticks);
    golden::expect_matches(name, "jump", jump, compiled.content);

    EXPECT_TRUE(core::evaluate_gates(core::harvest_scenario(lockstep),
                                     compiled)
                    .pass());
  }
}

}  // namespace
}  // namespace icd
