// Hierarchical LogGP-style network model.
//
// Message delay depends on where source and destination sit in the topology
// (intra-socket < intra-node < inter-node).  Inter-node messages additionally
// serialize through per-node NIC egress/ingress resources; the queueing this
// produces under bursty traffic is what differentiates the barrier algorithms
// in the paper's Fig. 8 (DESIGN.md §4.5).
//
// With a fault::FaultInjector attached (see set_fault_injector), each
// delivery first consults the injector.  Reliable-path deliveries
// (deliver_time) absorb drops through bounded retransmission — every lost
// attempt occupies the wire and NIC like a real send, the sender times out,
// and the final attempt is always delivered, so transport losses can never
// deadlock the MPI layer.  The ping-pong burst fast path
// (deliver_time_uncontended) instead reports the raw decision to the caller,
// which implements its own timeout + retry (World::synthesize_burst).
//
// Every delay is drawn from its (src -> dst) channel's private stream in one
// sim::ChannelStreams table.  The burst fast path resolves a Route (link
// level, delay stream, fault channel) once per direction per burst, so an
// exchange costs no lookups.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_injector.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "topology/params.hpp"
#include "topology/topology.hpp"
#include "trace/metrics.hpp"

namespace hcs::simmpi {

enum class LinkLevel { kIntraSocket, kIntraNode, kInterNode };

/// Per-delivery fault summary reported by deliver_time when an injector is
/// active: how many retransmissions the reliable path needed, and whether
/// the delivered message should additionally be duplicated by the caller.
struct DeliveryFaults {
  int retransmits = 0;
  bool duplicate = false;
};

class NetworkModel {
 public:
  /// Attempts per message on the reliable path: 1 original + kMaxRetransmits
  /// retries, the last of which is always delivered.
  static constexpr int kMaxRetransmits = 5;

  NetworkModel(const topology::ClusterTopology& topo, const topology::NetworkParams& params,
               std::uint64_t seed);

  LinkLevel classify(int src_rank, int dst_rank) const;

  const topology::LinkParams& link(LinkLevel level) const;

  /// Samples the one-way wire delay (no NIC queueing, no CPU overheads)
  /// from the caller-supplied stream.
  sim::Time sample_delay(LinkLevel level, std::int64_t bytes, sim::Rng& rng);

  /// The (src_rank -> dst_rank) channel's private delay stream, created on
  /// first use.  Keying randomness by channel — rather than by global draw
  /// order — is what makes delays shard-count-invariant: a channel's draws
  /// follow the sender's timeline only, and senders never migrate between
  /// shards (docs/parallel-simulation.md).  A channel is only ever touched
  /// from its sender's shard, so no locking.
  sim::Rng& channel_rng(int src_rank, int dst_rank);

  /// One directed channel resolved for many deliveries: a ping-pong burst
  /// resolves its two directions once.  The pointers follow
  /// sim::ChannelStreams' reference-stability rule; `fault.stream` is null
  /// unless an injector with network faults is attached.
  struct Route {
    LinkLevel level = LinkLevel::kInterNode;
    sim::Rng* stream = nullptr;
    fault::FaultChannel fault;
  };
  Route route(int src_rank, int dst_rank);

  /// Full path: earliest arrival of a message handed to the network at
  /// `depart_ready`.  Inter-node traffic runs transit_time then
  /// ingress_admit, the split path the World drives, so it mutates NIC
  /// state.  When `faults` is non-null and a fault injector is active, drops
  /// are absorbed by retransmission and the summary is written to *faults; a
  /// null `faults` delivers fault-blind (used for the second copy of a
  /// duplicated message).
  sim::Time deliver_time(int src_rank, int dst_rank, std::int64_t bytes, sim::Time depart_ready,
                         DeliveryFaults* faults = nullptr);

  /// As deliver_time but on a resolved route and without touching NIC
  /// state — used by the ping-pong burst fast path, whose pairwise traffic
  /// is modelled as uncontended.  When `decision` is non-null and the route
  /// has a fault channel, the injector's verdict is written there (drop
  /// means the returned arrival time is moot and the caller must handle the
  /// loss itself).
  sim::Time deliver_time_uncontended(const Route& route, std::int64_t bytes,
                                     sim::Time depart_ready,
                                     fault::NetFaultDecision* decision = nullptr);

  /// Sender half of the split inter-node path used by the sharded engine:
  /// NIC egress serialization + wire delay, drawn from the sender's channel
  /// stream.  Returns the time the message reaches the destination NIC port
  /// (before ingress admission).  Only touches sender-side state, so shards
  /// may call it concurrently for disjoint senders.  When `decision` is
  /// non-null its factor/extra stretch the wire delay; a dropped message
  /// still occupies egress and the returned port time is where it was lost.
  sim::Time egress_to_wire(int src_rank, int dst_rank, std::int64_t bytes, sim::Time depart_ready,
                           const fault::NetFaultDecision* decision = nullptr);

  /// Receiver half: admits a message that reached `dst_rank`'s NIC port at
  /// `port_time`, serializing through ingress and recording the delivery
  /// metric against `depart_ready` (hand-off to arrival, as deliver_time
  /// does).  Called in deterministic merge order at window boundaries.
  sim::Time ingress_admit(int dst_rank, std::int64_t bytes, sim::Time port_time,
                          sim::Time depart_ready);

  /// Reliable sender-side path for inter-node traffic: the same bounded
  /// retransmission loop as deliver_time (each lost attempt occupies egress
  /// and the wire; the last attempt always survives the fabric) but stopping
  /// at the destination NIC port.  As with deliver_time, a null `faults`
  /// runs fault-blind (duplicate copies).
  sim::Time transit_time(int src_rank, int dst_rank, std::int64_t bytes, sim::Time depart_ready,
                         DeliveryFaults* faults = nullptr);

  double send_overhead() const { return params_.send_overhead; }
  double recv_overhead() const { return params_.recv_overhead; }

  /// Conservative-window lookahead for the sharded engine: every inter-node
  /// message handed to the network at time t reaches the destination NIC
  /// port no earlier than t + this bound (base latency; jitter/spikes/fault
  /// stretches only add).
  double min_inter_node_latency() const { return params_.inter_node.base_latency; }

  /// Expected (mean) one-way delay for `bytes`, used by latency estimators.
  double expected_delay(LinkLevel level, std::int64_t bytes) const;

  /// Sender-side timeout before a retransmission on the reliable path: a
  /// conservative multiple of the expected one-way delay.
  double retransmit_timeout(LinkLevel level, std::int64_t bytes) const;

  /// Attaches the World's fault injector (null detaches).  Without one, all
  /// paths behave exactly as the fault-free model.
  void set_fault_injector(fault::FaultInjector* injector) noexcept { injector_ = injector; }

  /// Re-resolves the per-delivery metric handles against one registry per
  /// shard (null entries allowed — metrics off).  Deliveries recorded on a
  /// shard worker thread land in that shard's registry (indexed by
  /// sim::current_shard()); the World merges registries deterministically.
  void bind_shards(const std::vector<trace::MetricsRegistry*>& registries);

 private:
  // Metric handles resolved once at construction against the registry that
  // was active then (install metrics before building the World); null when
  // metrics are off, so the per-message cost is one branch.  Slot 0 of
  // shard_metrics_; bind_shards replaces the table with per-shard handles.
  struct LevelMetrics {
    trace::Counter* messages = nullptr;
    trace::Counter* bytes = nullptr;
    trace::HistogramMetric* delay = nullptr;
  };
  struct ShardMetrics {
    LevelMetrics levels[3];  // indexed by LinkLevel
    trace::Counter* retransmits = nullptr;
  };
  static ShardMetrics resolve_metrics(trace::MetricsRegistry* registry);
  void count_delivery(LinkLevel level, std::int64_t bytes, sim::Time delay);

  /// The reliable path's bounded retransmission loop, shared by deliver_time
  /// and transit_time.  `attempt(ready, decision)` makes one attempt handed
  /// over at `ready`; `decision` is null on the fault-blind path.
  template <class Attempt>
  sim::Time retransmit(LinkLevel level, int src_rank, int dst_rank, std::int64_t bytes,
                       sim::Time depart_ready, DeliveryFaults* faults, Attempt attempt);

  const topology::ClusterTopology* topo_;
  topology::NetworkParams params_;
  sim::ChannelStreams channels_;  // per (src_rank -> dst_rank) delay stream
  std::vector<sim::Time> egress_free_;   // per node; sender-shard state
  std::vector<sim::Time> ingress_free_;  // per node; receiver-side state
  std::vector<ShardMetrics> shard_metrics_;  // size >= 1; [sim::current_shard()]
  fault::FaultInjector* injector_ = nullptr;
};

}  // namespace hcs::simmpi
