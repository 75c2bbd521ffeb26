#include "simmpi/network.hpp"

#include <algorithm>
#include <cassert>

#include "sim/shard_context.hpp"

namespace hcs::simmpi {

NetworkModel::NetworkModel(const topology::ClusterTopology& topo,
                           const topology::NetworkParams& params, std::uint64_t seed)
    : topo_(&topo),
      params_(params),
      rng_(seed),
      channels_(seed ^ 0x6a09e667f3bcc909ULL, topo.total_ranks()),
      egress_free_(static_cast<std::size_t>(topo.nodes()), 0.0),
      ingress_free_(static_cast<std::size_t>(topo.nodes()), 0.0) {
  shard_metrics_.push_back(resolve_metrics(trace::active_metrics()));
}

NetworkModel::ShardMetrics NetworkModel::resolve_metrics(trace::MetricsRegistry* registry) {
  ShardMetrics out;
  if (!registry) return out;
  static constexpr const char* kLevelNames[3] = {"intra_socket", "intra_node", "inter_node"};
  for (int level = 0; level < 3; ++level) {
    const std::string suffix = kLevelNames[level];
    out.levels[level].messages = &registry->counter("net.messages." + suffix);
    out.levels[level].bytes = &registry->counter("net.bytes." + suffix);
    out.levels[level].delay = &registry->histogram("net.delay." + suffix);
  }
  out.retransmits = &registry->counter("fault.net.retransmits");
  return out;
}

void NetworkModel::bind_shards(const std::vector<trace::MetricsRegistry*>& registries) {
  shard_metrics_.clear();
  for (trace::MetricsRegistry* registry : registries) {
    shard_metrics_.push_back(resolve_metrics(registry));
  }
  if (shard_metrics_.empty()) shard_metrics_.push_back(resolve_metrics(nullptr));
}

void NetworkModel::count_delivery(LinkLevel level, std::int64_t bytes, sim::Time delay) {
  assert(static_cast<std::size_t>(sim::current_shard()) < shard_metrics_.size());
  LevelMetrics& m =
      shard_metrics_[static_cast<std::size_t>(sim::current_shard())].levels[static_cast<int>(level)];
  if (!m.messages) return;
  m.messages->inc();
  m.bytes->inc(static_cast<std::uint64_t>(bytes));
  m.delay->observe(delay);
}

LinkLevel NetworkModel::classify(int src_rank, int dst_rank) const {
  const auto a = topo_->locate(src_rank);
  const auto b = topo_->locate(dst_rank);
  if (a.node != b.node) return LinkLevel::kInterNode;
  if (a.socket != b.socket) return LinkLevel::kIntraNode;
  return LinkLevel::kIntraSocket;
}

const topology::LinkParams& NetworkModel::link(LinkLevel level) const {
  switch (level) {
    case LinkLevel::kIntraSocket: return params_.intra_socket;
    case LinkLevel::kIntraNode: return params_.intra_node;
    case LinkLevel::kInterNode: return params_.inter_node;
  }
  return params_.inter_node;
}

sim::Time NetworkModel::sample_delay(LinkLevel level, std::int64_t bytes) {
  return sample_delay(level, bytes, rng_);
}

sim::Time NetworkModel::sample_delay(LinkLevel level, std::int64_t bytes, sim::Rng& rng) {
  const topology::LinkParams& lp = link(level);
  sim::Time d = lp.base_latency + lp.per_byte * static_cast<double>(bytes);
  d += rng.exponential(lp.jitter_mean);
  if (lp.spike_prob > 0 && rng.bernoulli(lp.spike_prob)) {
    d += rng.exponential(lp.spike_mean);
  }
  return d;
}

sim::Rng& NetworkModel::channel_rng(int src_rank, int dst_rank) {
  return channels_.at(src_rank, dst_rank);
}

NetworkModel::Route NetworkModel::route(int src_rank, int dst_rank) {
  Route r;
  r.level = classify(src_rank, dst_rank);
  r.stream = &channel_rng(src_rank, dst_rank);
  if (injector_ && injector_->net_active()) r.fault = injector_->channel(src_rank, dst_rank);
  return r;
}

double NetworkModel::expected_delay(LinkLevel level, std::int64_t bytes) const {
  const topology::LinkParams& lp = link(level);
  return lp.base_latency + lp.per_byte * static_cast<double>(bytes) + lp.jitter_mean +
         lp.spike_prob * lp.spike_mean;
}

double NetworkModel::retransmit_timeout(LinkLevel level, std::int64_t bytes) const {
  return 6.0 * expected_delay(level, bytes) + 2.0 * (params_.send_overhead + params_.recv_overhead);
}

sim::Time NetworkModel::deliver_attempt(LinkLevel level, int src_rank, int dst_rank,
                                        std::int64_t bytes, sim::Time depart_ready,
                                        const fault::NetFaultDecision* decision) {
  const double factor = decision ? decision->delay_factor : 1.0;
  const double extra = decision ? decision->extra_delay : 0.0;
  const bool dropped = decision && decision->drop;
  sim::Rng& rng = channel_rng(src_rank, dst_rank);
  if (level != LinkLevel::kInterNode) {
    const sim::Time d = sample_delay(level, bytes, rng) * factor + extra;
    if (!dropped) count_delivery(level, bytes, d);
    return depart_ready + d;
  }
  const auto src_node = static_cast<std::size_t>(topo_->locate(src_rank).node);
  const auto dst_node = static_cast<std::size_t>(topo_->locate(dst_rank).node);
  const double nic_busy = params_.nic_gap + params_.nic_per_byte * static_cast<double>(bytes);
  const sim::Time depart = std::max(depart_ready, egress_free_[src_node]);
  egress_free_[src_node] = depart + nic_busy;
  sim::Time arrive = depart + sample_delay(level, bytes, rng) * factor + extra;
  // A message lost in the fabric consumed egress bandwidth but never reaches
  // the destination NIC.
  if (dropped) return arrive;
  arrive = std::max(arrive, ingress_free_[dst_node]);
  ingress_free_[dst_node] = arrive + nic_busy;
  // The observed delay includes NIC queueing: hand-off to arrival.
  count_delivery(level, bytes, arrive - depart_ready);
  return arrive;
}

sim::Time NetworkModel::egress_to_wire(int src_rank, int dst_rank, std::int64_t bytes,
                                       sim::Time depart_ready,
                                       const fault::NetFaultDecision* decision) {
  const double factor = decision ? decision->delay_factor : 1.0;
  const double extra = decision ? decision->extra_delay : 0.0;
  const auto src_node = static_cast<std::size_t>(topo_->locate(src_rank).node);
  const double nic_busy = params_.nic_gap + params_.nic_per_byte * static_cast<double>(bytes);
  const sim::Time depart = std::max(depart_ready, egress_free_[src_node]);
  egress_free_[src_node] = depart + nic_busy;
  sim::Rng& rng = channel_rng(src_rank, dst_rank);
  return depart + sample_delay(LinkLevel::kInterNode, bytes, rng) * factor + extra;
}

sim::Time NetworkModel::ingress_admit(int dst_rank, std::int64_t bytes, sim::Time port_time,
                                      sim::Time depart_ready) {
  const auto dst_node = static_cast<std::size_t>(topo_->locate(dst_rank).node);
  const double nic_busy = params_.nic_gap + params_.nic_per_byte * static_cast<double>(bytes);
  const sim::Time arrive = std::max(port_time, ingress_free_[dst_node]);
  ingress_free_[dst_node] = arrive + nic_busy;
  count_delivery(LinkLevel::kInterNode, bytes, arrive - depart_ready);
  return arrive;
}

sim::Time NetworkModel::transit_time(int src_rank, int dst_rank, std::int64_t bytes,
                                     sim::Time depart_ready, DeliveryFaults* faults) {
  if (!faults || !injector_ || !injector_->net_active()) {
    return egress_to_wire(src_rank, dst_rank, bytes, depart_ready, nullptr);
  }
  const double rto = retransmit_timeout(LinkLevel::kInterNode, bytes);
  const fault::FaultChannel channel = injector_->channel(src_rank, dst_rank);
  sim::Time ready = depart_ready;
  for (int attempt = 0;; ++attempt) {
    fault::NetFaultDecision fd =
        injector_->on_message(channel, static_cast<int>(LinkLevel::kInterNode), ready);
    if (attempt >= kMaxRetransmits) fd.drop = false;
    const sim::Time port = egress_to_wire(src_rank, dst_rank, bytes, ready, &fd);
    if (!fd.drop) {
      faults->retransmits = attempt;
      faults->duplicate = fd.duplicate;
      if (attempt > 0) {
        trace::Counter* m =
            shard_metrics_[static_cast<std::size_t>(sim::current_shard())].retransmits;
        if (m) m->inc(static_cast<std::uint64_t>(attempt));
      }
      return port;
    }
    ready += rto;
  }
}

sim::Time NetworkModel::deliver_time(int src_rank, int dst_rank, std::int64_t bytes,
                                     sim::Time depart_ready, DeliveryFaults* faults) {
  const LinkLevel level = classify(src_rank, dst_rank);
  if (!faults || !injector_ || !injector_->net_active()) {
    return deliver_attempt(level, src_rank, dst_rank, bytes, depart_ready, nullptr);
  }
  const double rto = retransmit_timeout(level, bytes);
  const fault::FaultChannel channel = injector_->channel(src_rank, dst_rank);
  sim::Time ready = depart_ready;
  for (int attempt = 0;; ++attempt) {
    fault::NetFaultDecision fd = injector_->on_message(channel, static_cast<int>(level), ready);
    // The last permitted attempt always goes through: the reliable transport
    // may degrade timing arbitrarily but never loses a message outright.
    if (attempt >= kMaxRetransmits) fd.drop = false;
    const sim::Time arrive = deliver_attempt(level, src_rank, dst_rank, bytes, ready, &fd);
    if (!fd.drop) {
      faults->retransmits = attempt;
      faults->duplicate = fd.duplicate;
      if (attempt > 0) {
        trace::Counter* m =
            shard_metrics_[static_cast<std::size_t>(sim::current_shard())].retransmits;
        if (m) m->inc(static_cast<std::uint64_t>(attempt));
      }
      return arrive;
    }
    ready += rto;
  }
}

sim::Time NetworkModel::deliver_time_uncontended(const Route& route, std::int64_t bytes,
                                                 sim::Time depart_ready,
                                                 fault::NetFaultDecision* decision) {
  if (decision && route.fault.stream) {
    *decision = injector_->on_message(route.fault, static_cast<int>(route.level), depart_ready);
    const sim::Time d = sample_delay(route.level, bytes, *route.stream) * decision->delay_factor +
                        decision->extra_delay;
    if (!decision->drop) count_delivery(route.level, bytes, d);
    return depart_ready + d;
  }
  const sim::Time d = sample_delay(route.level, bytes, *route.stream);
  count_delivery(route.level, bytes, d);
  return depart_ready + d;
}

}  // namespace hcs::simmpi
