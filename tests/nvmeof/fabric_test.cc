#include "nvmeof/fabric.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ecf::nvmeof {
namespace {

sim::FabricParams fast_reconnect_params() {
  sim::FabricParams p;  // ideal transport; only the state machine timing
  p.keepalive_interval_s = ecf::util::SimSec(1.0);
  p.reconnect_backoff_s = ecf::util::SimSec(0.5);
  p.reconnect_backoff_max_s = ecf::util::SimSec(2.0);
  p.ctrl_loss_timeout_s = ecf::util::SimSec(10.0);
  p.retry_timeout_s = ecf::util::SimSec(0.5);
  return p;
}

class FabricTest : public ::testing::Test {
 protected:
  ConnectionId connect(Fabric& f) {
    const int h = f.add_host("host0");
    return f.connect(h, "nqn.test:a", &disk_, 0.0);
  }

  sim::Engine eng_;
  sim::Disk disk_{sim::DiskParams{}};
};

TEST_F(FabricTest, DefaultFabricIsTimingInert) {
  // The acceptance bar for the whole subsystem: with default params the
  // disk must see exactly the call it would have seen without a fabric.
  Fabric fab(&eng_, sim::FabricParams{}, 1);
  const ConnectionId id = connect(fab);
  sim::Disk twin{sim::DiskParams{}};

  for (int i = 0; i < 8; ++i) {
    const std::uint64_t bytes = 1u << (12 + i % 4);
    const auto via_fabric = fab.read(id, bytes, 1, 0.01);
    const sim::SimTime direct = twin.read(eng_, bytes, 1, 0.01);
    ASSERT_TRUE(via_fabric.has_value());
    EXPECT_DOUBLE_EQ(via_fabric->complete, direct);
    EXPECT_DOUBLE_EQ(via_fabric->transport_wait_s, 0.0);
    EXPECT_EQ(via_fabric->retries, 0u);
  }
  const auto w = fab.write(id, 4096, 1, 0.0);
  ASSERT_TRUE(w.has_value());
  EXPECT_DOUBLE_EQ(w->complete, twin.write(eng_, 4096, 1, 0.0));
  EXPECT_DOUBLE_EQ(fab.totals().transport_wait_s, 0.0);
  EXPECT_EQ(fab.stats(id).commands, 9u);
}

TEST_F(FabricTest, LinkLatencyChargesOneRoundTrip) {
  Fabric fab(&eng_, sim::FabricParams{}, 1);
  const ConnectionId id = connect(fab);
  fab.set_link_latency(0, 0.005, 0.0);
  const auto r = fab.read(id, 4096, 1, 0.0);
  ASSERT_TRUE(r.has_value());
  // Request hop + response hop, nothing else (infinite bandwidth).
  EXPECT_NEAR(r->transport_wait_s, 0.010, 1e-12);
  // Clearing the lever restores the inert fast path.
  fab.set_link_latency(0, 0.0, 0.0);
  const auto r2 = fab.read(id, 4096, 1, 0.0);
  ASSERT_TRUE(r2.has_value());
  EXPECT_DOUBLE_EQ(r2->transport_wait_s, 0.0);
}

TEST_F(FabricTest, BandwidthCapChargesReadSerialization) {
  Fabric fab(&eng_, sim::FabricParams{}, 1);
  const ConnectionId id = connect(fab);
  fab.set_link_bandwidth_cap(0, 1e6);  // 1 MB/s
  // A read moves its payload on the response (rx) leg only.
  const auto r = fab.read(id, 500000, 1, 0.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->transport_wait_s, 0.5, 1e-9);
  EXPECT_EQ(fab.link(0).bytes_rx, 500000u);
}

TEST_F(FabricTest, BandwidthCapChargesWriteSerialization) {
  Fabric fab(&eng_, sim::FabricParams{}, 1);
  const ConnectionId id = connect(fab);
  fab.set_link_bandwidth_cap(0, 1e6);
  // A write carries the payload on the request (tx) leg.
  const auto w = fab.write(id, 250000, 1, 0.0);
  ASSERT_TRUE(w.has_value());
  EXPECT_NEAR(w->transport_wait_s, 0.25, 1e-9);
  EXPECT_EQ(fab.link(0).bytes_tx, 250000u);
}

TEST_F(FabricTest, BandwidthSharingContendsOnTheLink) {
  // Two reads submitted at the same instant share the host's rx server:
  // the second serializes behind the first (duplex-port contention).
  Fabric fab(&eng_, sim::FabricParams{}, 1);
  const ConnectionId id = connect(fab);
  fab.set_link_bandwidth_cap(0, 1e6);
  const auto a = fab.read(id, 500000, 1, 0.0);
  const auto b = fab.read(id, 500000, 1, 0.0);
  ASSERT_TRUE(a && b);
  EXPECT_GT(b->transport_wait_s, a->transport_wait_s);
  EXPECT_GT(b->complete, a->complete);
}

TEST_F(FabricTest, PacketLossRetriesDeterministically) {
  sim::FabricParams p;
  p.retry_timeout_s = ecf::util::SimSec(0.25);
  Fabric fab(&eng_, p, 1);
  const ConnectionId id = connect(fab);
  fab.set_packet_loss(0, 0.5);
  // rate 0.5 over two hops per command: the accumulator crosses 1.0 on
  // every command's response leg — exactly one retransmission each.
  for (int i = 0; i < 4; ++i) {
    const auto r = fab.read(id, 4096, 1, 0.0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->retries, 1u);
    EXPECT_NEAR(r->transport_wait_s, 0.25, 1e-12);
  }
  EXPECT_EQ(fab.stats(id).retries, 4u);
}

TEST_F(FabricTest, TcpProfileChargesFramingOverhead) {
  Fabric fab(&eng_, sim::tcp_fabric(), 1);
  const ConnectionId id = connect(fab);
  const auto r = fab.read(id, 1u << 20, 4, 0.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->transport_wait_s, 0.0);
  // Wire bytes exceed the payload: capsule on the request, PDU headers on
  // the response.
  EXPECT_GT(fab.link(0).bytes_rx, 1u << 20);
  EXPECT_GT(fab.link(0).bytes_tx, 0u);
}

TEST_F(FabricTest, ShortFlapOnlyStallsCommands) {
  Fabric fab(&eng_, fast_reconnect_params(), 1);
  const ConnectionId id = connect(fab);
  fab.set_link_down(0, 0.4);  // shorter than the 1s keep-alive interval
  const auto r = fab.read(id, 4096, 1, 0.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_GE(r->transport_wait_s, 0.4);
  EXPECT_GT(r->retries, 0u);
  eng_.run();
  // Keep-alive fired after the window closed: still CONNECTED, no
  // reconnect cycle.
  EXPECT_EQ(fab.state(id), ConnState::kConnected);
  EXPECT_EQ(fab.stats(id).keepalives, 1u);
  EXPECT_EQ(fab.stats(id).reconnects, 0u);
}

TEST_F(FabricTest, ReconnectBackoffTiming) {
  Fabric fab(&eng_, fast_reconnect_params(), 1);
  const ConnectionId id = connect(fab);
  std::vector<std::string> events;
  fab.set_on_event([&](ConnectionId, const std::string& m) {
    events.push_back(std::to_string(eng_.now()) + " " + m);
  });

  fab.set_link_down(0, 3.0);
  eng_.run();

  // KA fires at t=1 (TIMED_OUT); attempts at 1.5 and 2.5 find the link
  // still dark (backoff 0.5 doubling to 1.0, 2.0); the attempt at 4.5
  // succeeds — 3.5s after the controller loss, on the 3rd attempt.
  EXPECT_EQ(fab.state(id), ConnState::kConnected);
  const ConnectionStats& st = fab.stats(id);
  EXPECT_EQ(st.keepalives, 1u);
  EXPECT_EQ(st.reconnect_attempts, 3u);
  EXPECT_EQ(st.reconnects, 1u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].find("state=TIMED_OUT"), std::string::npos);
  EXPECT_NE(events[1].find("reconnected after 3.500s (3 attempts)"),
            std::string::npos);
  EXPECT_EQ(fab.totals().reconnects, 1u);
}

TEST_F(FabricTest, ControllerLossTimeoutFailsDevice) {
  sim::FabricParams p = fast_reconnect_params();
  p.ctrl_loss_timeout_s = ecf::util::SimSec(3.0);
  Fabric fab(&eng_, p, 1);
  const ConnectionId id = connect(fab);
  ConnectionId failed = kNoConnection;
  fab.set_on_failed([&](ConnectionId c) { failed = c; });

  fab.set_link_down(0, 100.0);
  eng_.run();

  // TIMED_OUT at t=1; attempts at 1.5 and 2.5 are within ctrl_loss_tmo;
  // the attempt at 4.5 exceeds it (3.5s elapsed) and gives up.
  EXPECT_EQ(fab.state(id), ConnState::kFailed);
  EXPECT_EQ(failed, id);
  EXPECT_EQ(fab.stats(id).reconnect_attempts, 3u);
  EXPECT_EQ(fab.stats(id).reconnects, 0u);
  // The device is gone from the initiator: I/O now returns EIO.
  EXPECT_FALSE(fab.read(id, 4096, 1, 0.0).has_value());
}

TEST_F(FabricTest, RestoreLinkBeforeKatoKeepsConnection) {
  Fabric fab(&eng_, fast_reconnect_params(), 1);
  const ConnectionId id = connect(fab);
  fab.set_link_down(0, 100.0);
  eng_.schedule(0.5, [&] { fab.restore_link(0); });
  eng_.run();
  // The window closed before the keep-alive deadline: no state change.
  EXPECT_EQ(fab.state(id), ConnState::kConnected);
  EXPECT_EQ(fab.stats(id).keepalives, 1u);
  EXPECT_EQ(fab.stats(id).reconnect_attempts, 0u);
}

TEST_F(FabricTest, DisconnectReturnsEioAndIsIdempotent) {
  Fabric fab(&eng_, sim::FabricParams{}, 1);
  const ConnectionId id = connect(fab);
  ASSERT_TRUE(fab.read(id, 4096, 1, 0.0).has_value());
  fab.disconnect(id, 1.0);
  EXPECT_FALSE(fab.read(id, 4096, 1, 0.0).has_value());
  EXPECT_FALSE(fab.write(id, 4096, 1, 0.0).has_value());
  fab.disconnect(id, 2.0);  // second teardown is a no-op
  EXPECT_EQ(fab.stats(id).commands, 1u);
}

TEST_F(FabricTest, QpairBackpressureDelaysWhenEnforced) {
  sim::FabricParams p;
  p.io_qpairs = 1;
  p.qpair_depth = 1;
  p.enforce_qpair_depth = true;
  Fabric fab(&eng_, p, 1);
  const ConnectionId id = connect(fab);

  // Three commands issued back to back into a single depth-1 qpair: the
  // 2nd and 3rd must wait for the previous completion before starting.
  const auto a = fab.write(id, 1u << 20, 1, 0.0);
  const auto b = fab.write(id, 1u << 20, 1, 0.0);
  const auto c = fab.write(id, 1u << 20, 1, 0.0);
  ASSERT_TRUE(a && b && c);
  EXPECT_GT(b->complete, a->complete);
  EXPECT_GT(c->complete, b->complete);
  const ConnectionStats& st = fab.stats(id);
  EXPECT_GT(st.backpressure_wait_s, 0.0);
  // Backpressure is part of the transport attribution.
  EXPECT_GE(st.transport_wait_s, st.backpressure_wait_s);
  const auto hist = fab.depth_histogram(id);
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0], 1u);  // first command found an empty queue
  EXPECT_EQ(hist[1], 2u);  // the others found it full
}

TEST_F(FabricTest, DepthHistogramRecordsWithoutEnforcement) {
  sim::FabricParams p;  // inert: accounting only
  p.io_qpairs = 2;
  Fabric fab(&eng_, p, 1);
  const ConnectionId id = connect(fab);
  for (int i = 0; i < 6; ++i) fab.write(id, 1u << 20, 1, 0.0);
  std::uint64_t total = 0;
  for (const std::uint64_t n : fab.depth_histogram(id)) total += n;
  EXPECT_EQ(total, 6u);
  EXPECT_DOUBLE_EQ(fab.stats(id).backpressure_wait_s, 0.0);
  EXPECT_GE(fab.connection_in_flight(id), 0);
}

TEST_F(FabricTest, LoadViewSumsOpenConnectionsOfItsHostOnly) {
  Fabric fab(&eng_, sim::FabricParams{}, 1);
  const int h0 = fab.add_host("host0");
  const int h1 = fab.add_host("host1");
  const ConnectionId a = fab.connect(h0, "nqn.test:a", &disk_, 0.0);
  const ConnectionId b = fab.connect(h1, "nqn.test:b", &disk_, 0.0);
  const ConnectionId c = fab.connect(h0, "nqn.test:c", &disk_, 0.0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fab.write(a, 1u << 20, 1, 0.0));
    ASSERT_TRUE(fab.write(c, 1u << 20, 1, 0.0));
  }
  ASSERT_TRUE(fab.write(b, 1u << 20, 1, 0.0));
  ASSERT_EQ(fab.connection_in_flight(a), 3);
  ASSERT_EQ(fab.connection_in_flight(b), 1);
  ASSERT_EQ(fab.connection_in_flight(c), 3);
  EXPECT_EQ(fab.load_view(h0, 0.0).in_flight, 6);
  EXPECT_EQ(fab.load_view(h1, 0.0).in_flight, 1);
  fab.disconnect(c, 0.0);
  EXPECT_EQ(fab.load_view(h0, 0.0).in_flight, 3);
  EXPECT_EQ(fab.load_view(h1, 0.0).in_flight, 1);
}

TEST(FabricTelemetryTest, FlushesOnceOnDestruction) {
  fabric_telemetry().reset();
  {
    sim::Engine eng;
    sim::Disk disk{sim::DiskParams{}};
    Fabric fab(&eng, sim::FabricParams{}, 1);
    const int h = fab.add_host("host0");
    const ConnectionId id = fab.connect(h, "nqn.test:a", &disk, 0.0);
    fab.read(id, 4096, 1, 0.0);
    fab.read(id, 4096, 1, 0.0);
    EXPECT_EQ(fabric_telemetry().snapshot().fabrics, 0u);  // not yet flushed
  }
  const FabricTelemetry::Snapshot s = fabric_telemetry().snapshot();
  EXPECT_EQ(s.fabrics, 1u);
  EXPECT_EQ(s.connections, 1u);
  EXPECT_EQ(s.commands, 2u);
  fabric_telemetry().reset();
}

}  // namespace
}  // namespace ecf::nvmeof
