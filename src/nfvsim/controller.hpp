#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hwmodel/dvfs.hpp"
#include "hwmodel/node.hpp"
#include "nfvsim/chain.hpp"
#include "nfvsim/knobs.hpp"

/// \file controller.hpp
/// The ONVM-style manager. Owns the node's chains, holds each chain's knob
/// configuration, snaps DVFS requests to the ladder, drives CAT
/// partitioning, and translates its state into hwmodel deployments for the
/// analytic engine. GreenNFV's NF controller (core/nf_controller) issues
/// `apply_knobs` calls against this class — the same interface the paper
/// added to the ONVM controller. The analytic model reads only each
/// chain's NF cost profiles, resolved once per chain; the functional chain
/// (NF objects and packet rings) is built on first use of chain(), which
/// the threaded engine makes.

namespace greennfv::nfvsim {

/// NF scheduling discipline.
enum class SchedMode {
  kPoll,    ///< DPDK default: dedicated spinning, 100% duty
  kHybrid,  ///< paper's "mix of callback and polling": sleep on empty queues
};

[[nodiscard]] std::string to_string(SchedMode mode);

class OnvmController {
 public:
  explicit OnvmController(hwmodel::NodeSpec spec = hwmodel::NodeSpec{},
                          SchedMode mode = SchedMode::kHybrid);

  /// Deploys a chain built from NF catalog names; returns its index.
  /// Throws std::invalid_argument on an unknown name.
  int add_chain(const std::string& name,
                const std::vector<std::string>& nf_names);

  [[nodiscard]] std::size_t num_chains() const { return chains_.size(); }

  /// The functional chain, built on the first call for index `i`. Not
  /// thread-safe: callers that share it across threads fetch it first.
  [[nodiscard]] ServiceChain& chain(std::size_t i);

  /// Applies a knob configuration to one chain: clamps to hardware limits
  /// and snaps the frequency to the DVFS ladder. Returns what was applied.
  ChainKnobs apply_knobs(std::size_t chain_index, const ChainKnobs& knobs);

  [[nodiscard]] const ChainKnobs& knobs(std::size_t chain_index) const {
    return knobs_.at(chain_index);
  }

  /// Enables/disables CAT partitioning (baseline runs without it).
  void set_use_cat(bool use_cat) { use_cat_ = use_cat; }
  [[nodiscard]] bool use_cat() const { return use_cat_; }

  void set_sched_mode(SchedMode mode) { sched_mode_ = mode; }
  [[nodiscard]] SchedMode sched_mode() const { return sched_mode_; }

  [[nodiscard]] const hwmodel::NodeSpec& spec() const { return spec_; }
  [[nodiscard]] const hwmodel::DvfsController& dvfs() const { return dvfs_; }

  /// Builds hwmodel deployments for the current knob state and the given
  /// per-chain workloads (one entry per chain).
  [[nodiscard]] std::vector<hwmodel::ChainDeployment> deployments(
      const std::vector<hwmodel::ChainWorkload>& workloads) const;

 private:
  hwmodel::NodeSpec spec_;
  hwmodel::DvfsController dvfs_;
  SchedMode sched_mode_;
  bool use_cat_ = true;
  struct Chain {
    std::string name;
    std::vector<std::string> nf_names;
    std::vector<hwmodel::NfCostProfile> nfs;
    std::unique_ptr<ServiceChain> functional;  ///< built by chain()
  };
  std::vector<Chain> chains_;
  std::vector<ChainKnobs> knobs_;
};

}  // namespace greennfv::nfvsim
