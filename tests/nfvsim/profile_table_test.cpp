#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/environment.hpp"
#include "hwmodel/nf_cost.hpp"
#include "nfvsim/controller.hpp"
#include "nfvsim/engine_threaded.hpp"

/// The analytic node model reads NF cost profiles resolved once per chain
/// from the catalog; the functional chains (NF objects and packet rings)
/// are built only when something asks for them. These tests pin
///   - the profile table against the functional NFs' own profiles,
///   - the cost of building an evaluation environment (bytes counted by
///     overriding global operator new in this binary),
///   - the threaded engine still getting working chains on demand.

// --- allocation counting -----------------------------------------------------

namespace {
std::atomic<long long> g_alloc_bytes{0};
std::atomic<bool> g_count_allocs{false};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_bytes.fetch_add(static_cast<long long>(n),
                            std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace greennfv::nfvsim {
namespace {

void expect_same_profiles(const std::vector<hwmodel::NfCostProfile>& want,
                          const std::vector<hwmodel::NfCostProfile>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(want[i].name);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].base_cycles, want[i].base_cycles);
    EXPECT_EQ(got[i].cycles_per_byte, want[i].cycles_per_byte);
    EXPECT_EQ(got[i].mem_refs_per_pkt, want[i].mem_refs_per_pkt);
    EXPECT_EQ(got[i].state_bytes, want[i].state_bytes);
  }
}

TEST(ProfileTable, DeploymentsMatchFunctionalChainProfiles) {
  // One single-NF chain per catalog entry, then every standard rotation.
  std::vector<std::vector<std::string>> compositions;
  for (const std::string& name : hwmodel::nf_catalog::names())
    compositions.push_back({name});
  for (int variant = 0; variant < 3; ++variant)
    compositions.push_back(standard_chain_nfs(variant));

  OnvmController controller;
  for (const auto& nfs : compositions)
    controller.add_chain("c" + std::to_string(controller.num_chains()), nfs);
  const auto deployments = controller.deployments(
      std::vector<hwmodel::ChainWorkload>(compositions.size()));
  ASSERT_EQ(deployments.size(), compositions.size());
  for (std::size_t i = 0; i < compositions.size(); ++i) {
    const ServiceChain functional("ref", compositions[i]);
    expect_same_profiles(functional.cost_profiles(), deployments[i].nfs);
    expect_same_profiles(controller.chain(i).cost_profiles(),
                         deployments[i].nfs);
  }
}

TEST(ProfileTable, UnknownNfIsRejectedAtAddChain) {
  OnvmController controller;
  EXPECT_THROW(controller.add_chain("bad", {"firewall", "teleporter"}),
               std::invalid_argument);
  EXPECT_EQ(controller.num_chains(), 0u);
}

TEST(ProfileTable, EnvironmentBuildSkipsThePacketPath) {
  // Five standard chains: two carry a NAT (a 65,536-bucket table), and
  // every functional chain owns four 4096-slot rings — over 1.5 MB if the
  // packet path were built.
  core::EnvConfig config;
  config.num_chains = 5;
  config.num_flows = 10;
  g_alloc_bytes.store(0);
  g_count_allocs.store(true);
  {
    const core::NfvEnvironment env(config, 42);
  }
  g_count_allocs.store(false);
  EXPECT_LT(g_alloc_bytes.load(), 64 * 1024)
      << "building the analytic environment allocated "
      << g_alloc_bytes.load() << " bytes";
}

TEST(ProfileTable, ThreadedEngineBuildsChainsOnDemand) {
  core::EnvConfig config;
  config.num_chains = 5;
  config.num_flows = 10;
  core::NfvEnvironment env(config, 42);
  std::vector<traffic::FlowSpec> flows;
  for (int c = 0; c < config.num_chains; ++c) {
    traffic::FlowSpec flow;
    flow.id = c;
    flow.pkt_bytes = 256;
    flow.chain_index = c;
    flows.push_back(flow);
  }
  ThreadedEngine::Options options;
  options.total_packets = 20000;
  ThreadedEngine engine(env.controller(), options);
  const auto report = engine.run(flows, 9);
  EXPECT_TRUE(report.conserved());
  ASSERT_EQ(report.per_chain_delivered.size(), 5u);
  for (const std::uint64_t delivered : report.per_chain_delivered)
    EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace greennfv::nfvsim
