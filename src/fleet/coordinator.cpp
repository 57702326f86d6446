#include "fleet/coordinator.hpp"

#include <stdexcept>
#include <utility>

namespace xl::fleet {
namespace {

Message make_frame(FrameType type, Channel channel, std::uint32_t dest,
                   std::uint64_t sequence, std::vector<std::uint8_t> payload) {
  Message message;
  message.header.type = type;
  message.header.channel = channel;
  message.header.dest = dest;
  message.header.sequence = sequence;
  message.payload = std::move(payload);
  return message;
}

}  // namespace

FleetCoordinator::FleetCoordinator(core::VdpSimOptions vdp, FleetOptions options)
    : vdp_(std::move(vdp)), options_(std::move(options)) {
  options_.validate();
  core::DseEngine::Options dse = options_.dse;
  // The union memo IS the distributed product — never run it cacheless.
  dse.cache_enabled = true;
  dse_engine_.set_options(std::move(dse));
}

FleetCoordinator::~FleetCoordinator() { stop(); }

void FleetCoordinator::register_model(FleetModel model) {
  if (started_) {
    throw std::logic_error("FleetCoordinator: register_model after start()");
  }
  if (model.served.name.empty()) {
    throw std::invalid_argument("FleetCoordinator: model name must be set");
  }
  if (model.served.prototype == nullptr || !model.served.factory) {
    throw std::invalid_argument("FleetCoordinator: model '" + model.served.name +
                                "' needs a prototype and a factory");
  }
  for (const FleetModel& existing : zoo_) {
    if (existing.served.name == model.served.name) {
      throw std::invalid_argument("FleetCoordinator: duplicate model '" +
                                  model.served.name + "'");
    }
  }
  zoo_.push_back(std::move(model));
}

void FleetCoordinator::start() {
  if (started_) throw std::logic_error("FleetCoordinator: already started");
  if (zoo_.empty()) {
    throw std::logic_error("FleetCoordinator: no models registered");
  }
  const std::uint32_t node_count = static_cast<std::uint32_t>(options_.nodes);
  routes_.clear();
  for (std::size_t index = 0; index < zoo_.size(); ++index) {
    const FleetModel& model = zoo_[index];
    routes_[model.served.name] =
        Route{options_.partition.owner_of(model.served.name, index, node_count),
              model.model_parallel};
  }
  fabric_ = std::make_unique<InProcFabric>(node_count + 1);
  transport_ = fabric_->make_endpoint(node_count);
  nodes_.clear();
  for (std::uint32_t rank = 0; rank < node_count; ++rank) {
    nodes_.push_back(std::make_unique<FleetNode>(rank,
                                                 fabric_->make_endpoint(rank),
                                                 zoo_, vdp_, options_,
                                                 &dse_context_));
  }
  for (const auto& node : nodes_) node->start();
  receiver_ = std::thread(&FleetCoordinator::receiver_loop, this);
  stopped_ = false;
  started_ = true;
}

std::future<serve::InferResult> FleetCoordinator::submit(
    const std::string& model, dnn::Tensor input) {
  if (!started_) {
    throw std::runtime_error("FleetCoordinator: submit before start()");
  }
  const auto route = routes_.find(model);
  if (route == routes_.end()) {
    throw std::invalid_argument("FleetCoordinator: unknown model '" + model +
                                "'");
  }
  const std::uint64_t sequence = next_wire_sequence_.fetch_add(1);
  std::future<serve::InferResult> future;
  {
    // Register the promise BEFORE the frame is in flight — the receiver
    // must always find it, however fast the node answers.
    std::lock_guard<std::mutex> lock(pending_mutex_);
    future = pending_[sequence].get_future();
  }
  WireWriter writer;
  writer.str(model);
  write_tensor(writer, input);
  transport_->send(make_frame(FrameType::kInferRequest, Channel::kServe,
                              route->second.owner, sequence, writer.take()));
  requests_.fetch_add(1);
  return future;
}

void FleetCoordinator::receiver_loop() {
  for (;;) {
    Message message = transport_->recv(kAnySource, Channel::kServe);
    if (message.header.type == FrameType::kShutdown) return;
    std::promise<serve::InferResult> promise;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      const auto it = pending_.find(message.header.sequence);
      if (it == pending_.end()) continue;  // Unknown correlation id.
      promise = std::move(it->second);
      pending_.erase(it);
    }
    try {
      if (message.header.type == FrameType::kInferResult) {
        WireReader reader(message.payload);
        serve::InferResult result;
        result.logits = read_tensor(reader);
        result.shard_id = static_cast<std::size_t>(reader.u64());
        result.batch_rows = static_cast<std::size_t>(reader.u64());
        result.coalesced_requests = static_cast<std::size_t>(reader.u64());
        result.queue_us = reader.f64();
        result.service_us = reader.f64();
        reader.expect_done();
        promise.set_value(std::move(result));
      } else if (message.header.type == FrameType::kErrorReply) {
        WireReader reader(message.payload);
        const std::string what = reader.str();
        promise.set_exception(
            std::make_exception_ptr(std::runtime_error(what)));
      } else {
        throw std::runtime_error(
            "FleetCoordinator: unexpected frame type on serve channel");
      }
    } catch (const std::exception&) {
      promise.set_exception(std::current_exception());
    }
  }
}

FleetDseResult FleetCoordinator::run_dse(
    const core::DseSweep& sweep, const std::vector<dnn::ModelSpec>& models) {
  return run_dse_impl(sweep, models, nullptr);
}

FleetDseResult FleetCoordinator::run_dse(
    const core::DseSweep& sweep, const std::vector<dnn::ModelSpec>& models,
    const core::DseCandidateEvaluator& evaluate) {
  return run_dse_impl(sweep, models, &evaluate);
}

FleetDseResult FleetCoordinator::run_dse_impl(
    const core::DseSweep& sweep, const std::vector<dnn::ModelSpec>& models,
    const core::DseCandidateEvaluator* evaluate) {
  if (!started_) {
    throw std::runtime_error("FleetCoordinator: run_dse before start()");
  }
  if (models.empty()) {
    throw std::invalid_argument("FleetCoordinator: run_dse needs models");
  }
  const std::uint32_t node_count = static_cast<std::uint32_t>(options_.nodes);

  // Publish the shared DSE context, then assign. The mailbox mutex of each
  // kDseAssign delivery sequences these writes before any node-side read.
  dse_admitted_ = core::DseEngine::admit(sweep);
  dse_models_ = models;
  if (evaluate != nullptr) {
    dse_evaluate_ = *evaluate;
    dse_context_.evaluate = &dse_evaluate_;
  } else {
    dse_evaluate_ = nullptr;
    dse_context_.evaluate = nullptr;
  }
  dse_context_.admitted = &dse_admitted_;
  dse_context_.models = &dse_models_;
  const std::uint64_t generation = ++dse_generation_;

  // Stripe the admitted grid round-robin over the ranks — every node agrees
  // on candidate identity via the admitted order, so a stripe is just a
  // list of indices. Candidates the union cache already fully covers are
  // not striped at all: a warm fleet re-run (or a coordinator pre-warmed
  // via import_memo) assigns zero work.
  std::vector<std::vector<std::uint64_t>> stripes(node_count);
  std::size_t striped = 0;
  for (std::size_t i = 0; i < dse_admitted_.size(); ++i) {
    bool covered = true;
    for (const dnn::ModelSpec& model : dse_models_) {
      if (!dse_engine_.memo_contains(
              core::DseEngine::memo_key(dse_admitted_[i], model))) {
        covered = false;
        break;
      }
    }
    if (covered) continue;
    stripes[striped++ % node_count].push_back(static_cast<std::uint64_t>(i));
  }
  for (std::uint32_t rank = 0; rank < node_count; ++rank) {
    WireWriter writer;
    writer.u64(stripes[rank].size());
    for (const std::uint64_t id : stripes[rank]) writer.u64(id);
    transport_->send(make_frame(FrameType::kDseAssign, Channel::kServe, rank,
                                generation, writer.take()));
  }

  // Collect every node's compact delta (rank order), then merge rank-by-rank
  // into the union memo — import_memo enforces bit-exact agreement on any
  // overlap, so a divergent evaluation fails loudly here, never silently.
  FleetDseResult fleet_result;
  fleet_result.node_evaluations.assign(node_count, 0);
  std::vector<core::DseMemo> deltas(node_count);
  std::string first_error;
  for (std::uint32_t rank = 0; rank < node_count; ++rank) {
    Message message = transport_->recv(rank, Channel::kDse);
    if (message.header.type == FrameType::kErrorReply) {
      WireReader reader(message.payload);
      if (first_error.empty()) {
        first_error = "fleet DSE: node " + std::to_string(rank) +
                      " failed: " + reader.str();
      }
      continue;
    }
    WireReader reader(message.payload);
    deltas[rank] = read_memo(reader);
    reader.expect_done();
    fleet_result.node_evaluations[rank] = deltas[rank].size();
  }
  if (!first_error.empty()) throw std::runtime_error(first_error);
  for (std::uint32_t rank = 0; rank < node_count; ++rank) {
    dse_engine_.import_memo(deltas[rank]);
  }

  // Broadcast the union memo so every node's warm cache covers every
  // stripe — the next run_dse pays zero evaluations under ANY partition.
  WireWriter merged_writer;
  write_memo(merged_writer, dse_engine_.export_memo());
  const std::vector<std::uint8_t> merged_payload = merged_writer.take();
  for (std::uint32_t rank = 0; rank < node_count; ++rank) {
    transport_->send(make_frame(FrameType::kDseMemoMerged, Channel::kServe,
                                rank, generation, merged_payload));
  }
  for (std::uint32_t rank = 0; rank < node_count; ++rank) {
    Message message = transport_->recv(rank, Channel::kDse);
    if (message.header.type != FrameType::kDseAck) {
      WireReader reader(message.payload);
      throw std::runtime_error("fleet DSE: node " + std::to_string(rank) +
                               " failed to import the merged memo: " +
                               reader.str());
    }
  }

  // Assemble on the coordinator's own engine: every (candidate, model) pair
  // is now cached, so this run ranks and Pareto-filters without paying a
  // single evaluator call — and is bit-identical to a single-engine run.
  fleet_result.result = evaluate != nullptr
                            ? dse_engine_.run(sweep, models, *evaluate)
                            : dse_engine_.run(sweep, models);
  return fleet_result;
}

void FleetCoordinator::stop() {
  if (!started_ || stopped_) return;
  const std::uint32_t node_count = static_cast<std::uint32_t>(options_.nodes);
  // Phase 1: stop the pumps. Each node drains its completer (every accepted
  // request resolves) and stops its runtime. Halo servers stay up — an
  // in-flight model-parallel request on another node may still need tiles.
  for (std::uint32_t rank = 0; rank < node_count; ++rank) {
    transport_->send(
        make_frame(FrameType::kShutdown, Channel::kServe, rank, 0, {}));
  }
  for (const auto& node : nodes_) node->join_pump();
  // Phase 2: no pump is alive, so no halo request can still be issued.
  for (std::uint32_t rank = 0; rank < node_count; ++rank) {
    transport_->send(
        make_frame(FrameType::kShutdown, Channel::kHaloRequest, rank, 0, {}));
  }
  for (const auto& node : nodes_) node->join_halo();
  // Phase 3: every node answered everything it will ever answer — stop the
  // receiver with a self-addressed shutdown frame (FIFO after all results).
  transport_->send(make_frame(FrameType::kShutdown, Channel::kServe,
                              node_count, 0, {}));
  if (receiver_.joinable()) receiver_.join();
  // Anything still pending can only be a request submitted after phase 1
  // reached its owner; fail it the way the runtime fails orphans.
  std::map<std::uint64_t, std::promise<serve::InferResult>> leftovers;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    leftovers.swap(pending_);
  }
  for (auto& [sequence, promise] : leftovers) {
    (void)sequence;
    promise.set_exception(std::make_exception_ptr(serve::ShutdownError(
        "FleetCoordinator: stop() before the request completed")));
  }
  stopped_ = true;
  started_ = false;
}

std::uint32_t FleetCoordinator::owner_of(const std::string& model) const {
  const auto it = routes_.find(model);
  if (it == routes_.end()) {
    throw std::invalid_argument("FleetCoordinator: unknown model '" + model +
                                "' (owner_of is valid after start())");
  }
  return it->second.owner;
}

std::vector<std::string> FleetCoordinator::model_names() const {
  std::vector<std::string> names;
  names.reserve(zoo_.size());
  for (const FleetModel& model : zoo_) names.push_back(model.served.name);
  return names;
}

FleetStats FleetCoordinator::stats() const {
  FleetStats stats;
  stats.requests = requests_.load();
  for (const auto& node : nodes_) stats.nodes.push_back(node->stats());
  if (fabric_) stats.transport = fabric_->stats();
  return stats;
}

}  // namespace xl::fleet
