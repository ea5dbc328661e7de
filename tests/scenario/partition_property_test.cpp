#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"

/// partition_node_env through the chain -> flow index must emit exactly
/// what a full scan of the fleet flow list emits: the same flows, remapped
/// the same way, in global flow-list order, with the offered load summed in
/// that order (the traffic generator draws per flow in list order, so any
/// reordering changes the simulated numbers).

namespace greennfv::scenario {
namespace {

/// The full-scan partition, kept here as the reference: every flow of the
/// list is tested against every member chain.
core::EnvConfig scan_partition(
    const ScenarioSpec& spec,
    const std::vector<std::vector<std::string>>& comps,
    const std::vector<traffic::FlowSpec>& flows,
    const std::vector<int>& local_chains, int node) {
  core::EnvConfig env = spec.env_config();
  env.num_chains = static_cast<int>(local_chains.size());
  env.chain_nfs.clear();
  for (const int c : local_chains)
    env.chain_nfs.push_back(comps.at(static_cast<std::size_t>(c)));
  env.flows.clear();
  env.total_offered_gbps = 0.0;
  for (const auto& flow : flows) {
    for (std::size_t local = 0; local < local_chains.size(); ++local) {
      if (flow.chain_index != local_chains[local]) continue;
      traffic::FlowSpec remapped = flow;
      remapped.id = static_cast<int>(env.flows.size());
      remapped.chain_index = static_cast<int>(local);
      env.total_offered_gbps += remapped.mean_rate_gbps();
      env.flows.push_back(std::move(remapped));
    }
  }
  if (env.flows.empty()) {
    throw std::invalid_argument(format(
        "scenario: node %d hosts %d chain(s) but receives no flows", node,
        env.num_chains));
  }
  env.num_flows = static_cast<int>(env.flows.size());
  return env;
}

void expect_same_env(const core::EnvConfig& want, const core::EnvConfig& got) {
  EXPECT_EQ(got.num_chains, want.num_chains);
  EXPECT_EQ(got.chain_nfs, want.chain_nfs);
  EXPECT_EQ(got.num_flows, want.num_flows);
  // Bit-exact: the sum must run in the same order.
  EXPECT_EQ(got.total_offered_gbps, want.total_offered_gbps);
  ASSERT_EQ(got.flows.size(), want.flows.size());
  for (std::size_t f = 0; f < want.flows.size(); ++f) {
    SCOPED_TRACE(format("flow %zu", f));
    const traffic::FlowSpec& a = want.flows[f];
    const traffic::FlowSpec& b = got.flows[f];
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.proto, a.proto);
    EXPECT_EQ(b.arrival, a.arrival);
    EXPECT_EQ(b.mean_rate_pps, a.mean_rate_pps);
    EXPECT_EQ(b.pkt_bytes, a.pkt_bytes);
    EXPECT_EQ(b.peak_to_mean, a.peak_to_mean);
    EXPECT_EQ(b.dwell_s, a.dwell_s);
    EXPECT_EQ(b.chain_index, a.chain_index);
  }
}

/// A churning 5-node fleet whose 4 initial chains share 10 interleaved
/// flows (flow i serves chain i % 4, so chains 0 and 1 get three flows and
/// chains 2 and 3 two) next to a stream of arrivals.
ScenarioSpec churn_spec() {
  ScenarioSpec spec = preset("fleet-smoke");
  spec.seed = 7;
  spec.num_nodes = 5;
  spec.num_chains = 4;
  spec.num_flows = 10;
  spec.fleet.horizon_windows = 24;
  spec.fleet.arrival_rate = 1.5;
  spec.fleet.mean_holding_windows = 4.0;
  return spec;
}

struct Fleet {
  ScenarioSpec spec = churn_spec();
  orchestrator::FleetOrchestrator orchestrator{spec};
  std::vector<std::vector<std::string>> comps;

  Fleet() {
    for (const auto& chain : orchestrator.timeline().chains)
      comps.push_back(chain.nfs);
  }
  [[nodiscard]] const std::vector<traffic::FlowSpec>& flows() const {
    return orchestrator.timeline().flows;
  }
};

TEST(ChainFlowIndex, ListsEveryFlowOnceAscendingPerChain) {
  const Fleet fleet;
  const ChainFlowIndex index(fleet.flows());
  const int chains = static_cast<int>(fleet.comps.size());
  std::vector<int> seen(fleet.flows().size(), 0);
  for (int c = 0; c < chains; ++c) {
    const auto positions = index.of(c);
    EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
    for (const std::uint32_t f : positions) {
      EXPECT_EQ(fleet.flows()[f].chain_index, c);
      ++seen[f];
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int n) { return n == 1; }));
  EXPECT_TRUE(index.of(-1).empty());
  EXPECT_TRUE(index.of(chains + 100).empty());
  EXPECT_EQ(&index.flows(), &fleet.flows());
}

TEST(PartitionProperty, ReplayedMembershipMatchesFullScan) {
  // Every member set run_model rebuilds a node for, over the whole run.
  const Fleet fleet;
  const ChainFlowIndex index(fleet.flows());
  orchestrator::MembershipReplay replay(fleet.orchestrator.timeline(),
                                        fleet.spec.num_nodes);
  int compared = 0;
  int mixed = 0;
  for (int w = 0; w < fleet.orchestrator.horizon(); ++w) {
    for (const int n : replay.advance()) {
      const std::vector<int>& members = replay.members(n);
      if (members.empty()) continue;
      SCOPED_TRACE(format("window %d node %d", w, n));
      expect_same_env(
          scan_partition(fleet.spec, fleet.comps, fleet.flows(), members, n),
          partition_node_env(fleet.spec, fleet.comps, index, members, n));
      ++compared;
      const bool has_initial = members.front() < fleet.spec.num_chains;
      const bool has_arrival = members.back() >= fleet.spec.num_chains;
      if (has_initial && has_arrival) ++mixed;
    }
  }
  EXPECT_GT(compared, 20);
  // Guards the property against degenerating: some node must mix the
  // interleaved initial chains with arrivals.
  EXPECT_GT(mixed, 0);
}

TEST(PartitionProperty, RandomMemberSubsetsMatchFullScan) {
  const Fleet fleet;
  const ChainFlowIndex index(fleet.flows());
  const int chains = static_cast<int>(fleet.comps.size());
  const int initial = fleet.spec.num_chains;
  std::vector<int> with_flows;
  for (int c = 0; c < chains; ++c)
    if (!index.of(c).empty()) with_flows.push_back(c);
  ASSERT_GT(with_flows.size(), 20u);

  Rng rng(20261018);
  for (int trial = 0; trial < 300; ++trial) {
    // Distinct members in random order (the order sets the local chain
    // indices), at least one of them an interleaved initial chain.
    std::vector<int> pool = with_flows;
    for (std::size_t i = pool.size() - 1; i > 0; --i)
      std::swap(pool[i], pool[rng.uniform_u64(i + 1)]);
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 6));
    std::vector<int> members(pool.begin(),
                             pool.begin() + static_cast<long>(size));
    if (std::none_of(members.begin(), members.end(),
                     [&](int c) { return c < initial; })) {
      members[rng.uniform_u64(size)] =
          static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(
              initial)));
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
    }
    SCOPED_TRACE(format("trial %d", trial));
    expect_same_env(
        scan_partition(fleet.spec, fleet.comps, fleet.flows(), members, 0),
        partition_node_env(fleet.spec, fleet.comps, index, members, 0));
  }

  // All initial chains together, in reverse order: the fully interleaved
  // prefix of the flow list with every local index remapped.
  std::vector<int> all_initial;
  for (int c = initial - 1; c >= 0; --c) all_initial.push_back(c);
  expect_same_env(
      scan_partition(fleet.spec, fleet.comps, fleet.flows(), all_initial, 0),
      partition_node_env(fleet.spec, fleet.comps, index, all_initial, 0));
}

TEST(PartitionProperty, ChainWithoutFlowsThrowsTheSameError) {
  const Fleet fleet;
  // Drop chain 1's flows from the list: a node hosting only chain 1 has
  // no traffic, and hosting it beside a chain with flows is fine.
  std::vector<traffic::FlowSpec> flows;
  for (const auto& flow : fleet.flows())
    if (flow.chain_index != 1) flows.push_back(flow);
  const ChainFlowIndex index(flows);

  std::string scan_error;
  try {
    (void)scan_partition(fleet.spec, fleet.comps, flows, {1}, 3);
  } catch (const std::invalid_argument& e) {
    scan_error = e.what();
  }
  ASSERT_FALSE(scan_error.empty());
  try {
    (void)partition_node_env(fleet.spec, fleet.comps, index, {1}, 3);
    FAIL() << "a node whose chains have no flows must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), scan_error);
  }
  expect_same_env(scan_partition(fleet.spec, fleet.comps, flows, {1, 2}, 3),
                  partition_node_env(fleet.spec, fleet.comps, index, {1, 2},
                                     3));
}

}  // namespace
}  // namespace greennfv::scenario
