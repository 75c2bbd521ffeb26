#include "simmpi/network.hpp"

#include <gtest/gtest.h>

#include "topology/presets.hpp"

namespace hcs::simmpi {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  topology::MachineConfig machine_ = topology::testbox(2, 4);  // 2 nodes x 4 cores
  NetworkModel net_{machine_.topo, machine_.net, 7};
  sim::Rng rng_{7};
};

TEST_F(NetworkTest, ClassifiesLevels) {
  EXPECT_EQ(net_.classify(0, 1), LinkLevel::kIntraSocket);  // 1 socket/node
  EXPECT_EQ(net_.classify(0, 4), LinkLevel::kInterNode);
  const auto two_socket = topology::jupiter();
  NetworkModel net2(two_socket.topo, two_socket.net, 7);
  EXPECT_EQ(net2.classify(0, 7), LinkLevel::kIntraSocket);
  EXPECT_EQ(net2.classify(0, 8), LinkLevel::kIntraNode);   // other socket
  EXPECT_EQ(net2.classify(0, 16), LinkLevel::kInterNode);  // next node
}

TEST_F(NetworkTest, DelayAtLeastBasePlusSerialization) {
  for (int i = 0; i < 1000; ++i) {
    const double d = net_.sample_delay(LinkLevel::kInterNode, 1024, rng_);
    EXPECT_GE(d, machine_.net.inter_node.base_latency +
                     machine_.net.inter_node.per_byte * 1024);
  }
}

TEST_F(NetworkTest, LargerMessagesTakeLonger) {
  const double small = net_.expected_delay(LinkLevel::kInterNode, 8);
  const double large = net_.expected_delay(LinkLevel::kInterNode, 1 << 20);
  EXPECT_GT(large, small);
}

TEST_F(NetworkTest, LevelsOrderedByLatency) {
  EXPECT_LT(net_.expected_delay(LinkLevel::kIntraSocket, 8),
            net_.expected_delay(LinkLevel::kIntraNode, 8));
  EXPECT_LT(net_.expected_delay(LinkLevel::kIntraNode, 8),
            net_.expected_delay(LinkLevel::kInterNode, 8));
}

TEST_F(NetworkTest, JitterProducesVariance) {
  double first = net_.sample_delay(LinkLevel::kInterNode, 8, rng_);
  bool varied = false;
  for (int i = 0; i < 100; ++i) {
    if (net_.sample_delay(LinkLevel::kInterNode, 8, rng_) != first) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST_F(NetworkTest, NicGapSerializesBackToBackEgress) {
  // Two messages handed to the NIC at the same instant must depart at least
  // nic_gap apart, so the second one arrives later on average.
  const double t1 = net_.deliver_time(0, 4, 8, 1.0);
  const double t2 = net_.deliver_time(0, 5, 8, 1.0);
  EXPECT_GE(t2, 1.0 + machine_.net.nic_gap);
  (void)t1;
}

TEST_F(NetworkTest, IngressSerializesConvergingTraffic) {
  // Two senders on different nodes target node 1 at the same instant: the
  // second admission waits for the first to clear the ingress port.
  const auto machine = topology::testbox(3, 2);
  NetworkModel net(machine.topo, machine.net, 7);
  const double a = net.deliver_time(0, 2, 8, 1.0);  // node 0 -> node 1
  const double b = net.deliver_time(4, 3, 8, 1.0);  // node 2 -> node 1
  EXPECT_GE(b - a, machine.net.nic_gap);
}

TEST_F(NetworkTest, InterNodeDeliverTimeIsTransitThenIngressAdmit) {
  // deliver_time's inter-node path is the sender/receiver split the World
  // drives: a twin model fed the same messages through transit_time and
  // ingress_admit must produce the same arrivals, NIC queueing included.
  const auto machine = topology::testbox(3, 2);
  NetworkModel whole(machine.topo, machine.net, 7);
  NetworkModel split(machine.topo, machine.net, 7);
  const int pairs[][2] = {{0, 2}, {1, 3}, {4, 2}, {0, 5}, {2, 0}, {5, 1}};
  for (int round = 0; round < 4; ++round) {
    const double ready = 1.0 + 1e-6 * round;
    for (const auto& pr : pairs) {
      const double a = whole.deliver_time(pr[0], pr[1], 64, ready);
      const double port = split.transit_time(pr[0], pr[1], 64, ready);
      const double b = split.ingress_admit(pr[1], 64, port, ready);
      EXPECT_EQ(a, b) << pr[0] << "->" << pr[1] << " round " << round;
    }
  }
}

TEST_F(NetworkTest, IntraNodeBypassesNic) {
  // Saturate node 0's egress...
  for (int i = 0; i < 50; ++i) net_.deliver_time(0, 4, 8, 2.0);
  // ...then an intra-node message at the same instant is unaffected.
  const double t = net_.deliver_time(0, 1, 8, 2.0);
  EXPECT_LT(t, 2.0 + 10 * machine_.net.intra_socket.base_latency);
}

TEST_F(NetworkTest, UncontendedIgnoresNicState) {
  for (int i = 0; i < 50; ++i) net_.deliver_time(0, 4, 8, 3.0);
  const double t = net_.deliver_time_uncontended(net_.route(0, 4), 8, 3.0);
  // Bounded by base + serialization + a generous jitter allowance.
  EXPECT_LT(t, 3.0 + machine_.net.inter_node.base_latency + 1e-6);
}

TEST_F(NetworkTest, SpikesOccurAtConfiguredRate) {
  auto cfg = machine_;
  cfg.net.inter_node.spike_prob = 0.5;
  cfg.net.inter_node.spike_mean = 100e-6;
  NetworkModel spiky(cfg.topo, cfg.net, 11);
  sim::Rng rng(11);
  int spikes = 0;
  const int n = 2000;
  // Base delay stays near 1 us; a spike adds Exp(100 us), so >3 us detects a
  // spike with probability ~0.97 and false-positives are negligible.
  for (int i = 0; i < n; ++i) {
    if (spiky.sample_delay(LinkLevel::kInterNode, 8, rng) > 3e-6) ++spikes;
  }
  EXPECT_NEAR(static_cast<double>(spikes) / n, 0.5 * 0.97, 0.05);
}

TEST_F(NetworkTest, ExpectedDelayIncludesSpikeContribution) {
  auto cfg = machine_;
  cfg.net.inter_node.spike_prob = 0.1;
  cfg.net.inter_node.spike_mean = 50e-6;
  NetworkModel spiky(cfg.topo, cfg.net, 13);
  EXPECT_NEAR(spiky.expected_delay(LinkLevel::kInterNode, 0) -
                  net_.expected_delay(LinkLevel::kInterNode, 0),
              0.1 * 50e-6, 1e-9);
}

}  // namespace
}  // namespace hcs::simmpi
