// FleetCoordinator — the fleet's front door and control plane.
//
// The coordinator owns the fabric (world_size = nodes + 1; it occupies the
// last rank), partitions the registered model zoo across the FleetNodes,
// routes each InferRequest frame to the owning rank, and orchestrates
// distributed DSE: stripe the admitted candidate grid, collect each node's
// compact memo delta, merge them (rank order, bit-exact agreement enforced)
// into the union cache, broadcast the merged memo back, and assemble the
// final ranked result from its own — now fully warm — DseEngine.
//
// Determinism contract: for a fixed request trace and sweep, per-sample
// logits and the ranked DSE fronts are bit-identical for any node count and
// any partition map, and identical to a single-node run. Routing decides
// only *where* work executes; the serve/core layers guarantee the values
// (see serving_runtime.hpp and model_parallel.hpp for the mechanism).
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dse.hpp"
#include "core/dse_engine.hpp"
#include "core/vdp_simulator.hpp"
#include "fleet/fleet_node.hpp"
#include "fleet/fleet_types.hpp"
#include "fleet/transport.hpp"
#include "serve/serve_types.hpp"

namespace xl::fleet {

class FleetCoordinator {
 public:
  /// Validates the options up front (throws std::invalid_argument). The vdp
  /// options configure every node's shard and model-parallel engines
  /// identically — they are the fleet-wide numerics contract.
  explicit FleetCoordinator(core::VdpSimOptions vdp, FleetOptions options = {});

  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  /// Calls stop().
  ~FleetCoordinator();

  /// Register a model before start(). Same prototype-lifetime rules as
  /// ServingRuntime::register_model; `model_parallel` additionally requires
  /// the network's last accelerated layer to be Dense (checked at start()).
  void register_model(FleetModel model);

  /// Build the fabric and the nodes, partition the zoo, start everything.
  /// Throws std::logic_error when already started or no model is registered.
  void start();

  /// Route one request to the owning node. The future resolves with the
  /// node's result, or throws std::runtime_error carrying the node-side
  /// error. Throws std::invalid_argument for an unregistered model and
  /// std::runtime_error when the fleet is not started.
  [[nodiscard]] std::future<serve::InferResult> submit(const std::string& model,
                                                       dnn::Tensor input);

  /// Distributed DSE over the fleet: bit-identical to DseEngine::run on a
  /// single engine with the same options, with the evaluation work striped
  /// across nodes. On a warm fleet (the union memo covers the grid) no node
  /// pays any evaluator call. Blocking; not thread-safe with itself.
  [[nodiscard]] FleetDseResult run_dse(
      const core::DseSweep& sweep, const std::vector<dnn::ModelSpec>& models);
  [[nodiscard]] FleetDseResult run_dse(
      const core::DseSweep& sweep, const std::vector<dnn::ModelSpec>& models,
      const core::DseCandidateEvaluator& evaluate);

  /// Snapshot of the coordinator's union memo (every delta ever merged).
  [[nodiscard]] core::DseMemo export_memo() const {
    return dse_engine_.export_memo();
  }

  /// Pre-warm the union cache (e.g. from a previous fleet's export). The
  /// merged memo reaches the nodes on the next run_dse broadcast. Returns
  /// the number of newly inserted entries.
  std::size_t import_memo(const core::DseMemo& memo) {
    return dse_engine_.import_memo(memo);
  }

  /// Orderly shutdown: stop node pumps (completing every accepted request),
  /// then halo servers, then the coordinator's receiver. Idempotent.
  void stop();

  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] const FleetOptions& options() const noexcept { return options_; }
  /// Owning rank of a registered model (routing table lookup).
  [[nodiscard]] std::uint32_t owner_of(const std::string& model) const;
  [[nodiscard]] std::vector<std::string> model_names() const;

  /// Fleet-wide snapshot: per-node serving/halo/DSE counters plus fabric
  /// traffic totals. Callable while serving.
  [[nodiscard]] FleetStats stats() const;

 private:
  struct Route {
    std::uint32_t owner = 0;
    bool model_parallel = false;
  };

  void receiver_loop();
  [[nodiscard]] FleetDseResult run_dse_impl(
      const core::DseSweep& sweep, const std::vector<dnn::ModelSpec>& models,
      const core::DseCandidateEvaluator* evaluate);

  core::VdpSimOptions vdp_;
  FleetOptions options_;
  std::vector<FleetModel> zoo_;
  std::map<std::string, Route> routes_;

  std::unique_ptr<InProcFabric> fabric_;
  std::unique_ptr<Transport> transport_;  ///< Coordinator endpoint (rank N).
  std::vector<std::unique_ptr<FleetNode>> nodes_;

  /// The union memo + assembly engine (cache always enabled: the memo IS
  /// the distributed product). Mutated only by run_dse_impl/import_memo.
  core::DseEngine dse_engine_;
  DseSharedContext dse_context_;
  /// Backing storage the shared context points into during a run_dse.
  std::vector<core::DseCandidate> dse_admitted_;
  std::vector<dnn::ModelSpec> dse_models_;
  core::DseCandidateEvaluator dse_evaluate_;
  std::uint64_t dse_generation_ = 0;

  std::thread receiver_;
  std::mutex pending_mutex_;
  std::map<std::uint64_t, std::promise<serve::InferResult>> pending_;
  std::atomic<std::uint64_t> next_wire_sequence_{1};  ///< Frame header ticket.
  std::atomic<std::size_t> requests_{0};

  std::atomic<bool> started_{false};
  bool stopped_ = false;
};

}  // namespace xl::fleet
