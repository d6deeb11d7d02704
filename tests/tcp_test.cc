#include <gtest/gtest.h>

#include "apps/sink.h"
#include "apps/tcp.h"
#include "sim/network.h"

namespace srv6bpf::apps {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// Two hosts joined by a single configurable link.
struct TcpPair {
  sim::Network net{99};
  sim::Node* a;
  sim::Node* b;
  std::unique_ptr<AppMux> mux_a;
  std::unique_ptr<AppMux> mux_b;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;
  sim::Link* link;

  explicit TcpPair(std::uint64_t bw_bps = 50'000'000,
                   sim::TimeNs delay = 10 * sim::kMilli) {
    a = &net.add_node("a");
    b = &net.add_node("b");
    auto l = net.connect(*a, A("fc00::1"), *b, A("fc00::2"), bw_bps, delay);
    link = l.link;
    a->ns().table(0).add_route(P("::/0"), {A("fc00::2"), l.a_ifindex, 1});
    b->ns().table(0).add_route(P("::/0"), {A("fc00::1"), l.b_ifindex, 1});
    mux_a = std::make_unique<AppMux>(*a);
    mux_b = std::make_unique<AppMux>(*b);
  }

  double run(sim::TimeNs duration) {
    TcpReceiver::Config rc;
    rc.addr = A("fc00::2");
    receiver = std::make_unique<TcpReceiver>(*b, *mux_b, rc);
    TcpSender::Config sc;
    sc.src = A("fc00::1");
    sc.dst = A("fc00::2");
    sc.duration = duration;
    sender = std::make_unique<TcpSender>(*a, *mux_a, sc);
    sender->start();
    net.run_for(duration + sim::kSecond);
    return receiver->goodput_mbps(duration);
  }
};

TEST(TcpSegment, WireFormat) {
  net::Packet p = make_tcp_segment(A("fc00::1"), A("fc00::2"), 40000, 5001,
                                   1000, 2000, net::kTcpAck, 100);
  EXPECT_EQ(p.size(), 40u + 20 + 100);
  auto loc = net::locate_transport(p);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->proto, net::kProtoTcp);
  auto th = net::TcpHeader::parse({p.data() + loc->offset, 20});
  ASSERT_TRUE(th.has_value());
  EXPECT_EQ(th->seq, 1000u);
  EXPECT_EQ(th->ack, 2000u);
}

TEST(Tcp, SaturatesACleanLink) {
  TcpPair pair(/*bw=*/50'000'000, /*delay=*/5 * sim::kMilli);
  const double goodput = pair.run(5 * sim::kSecond);
  // Should reach a large fraction of the 50 Mbps link.
  EXPECT_GT(goodput, 35.0);
  EXPECT_LE(goodput, 51.0);
  EXPECT_EQ(pair.receiver->ooo_segments(), 0u) << "single path: no reordering";
}

TEST(Tcp, ThroughputBoundedByBandwidth) {
  TcpPair pair(/*bw=*/5'000'000, /*delay=*/5 * sim::kMilli);
  const double goodput = pair.run(5 * sim::kSecond);
  EXPECT_LE(goodput, 5.3);
  EXPECT_GT(goodput, 3.0);
}

TEST(Tcp, RecoversFromLossBurst) {
  TcpPair pair(/*bw=*/20'000'000, /*delay=*/5 * sim::kMilli);
  // Squeeze the queue so slow-start overshoot drops packets.
  pair.link->set_wire_queue_limit(30'000);
  const double goodput = pair.run(5 * sim::kSecond);
  EXPECT_GT(goodput, 10.0) << "loss recovery must keep the pipe flowing";
  EXPECT_GT(pair.sender->retransmits(), 0u);
}

TEST(Tcp, ReorderingCollapsesGoodput) {
  // Same capacity, but the path duplicates the paper's WRR situation:
  // alternate packets over 30 ms vs 5 ms one-way delays (no loss at all).
  TcpPair fast_slow(/*bw=*/80'000'000, /*delay=*/0);
  // Model per-packet spraying across two delay classes with a custom qdisc:
  // easiest equivalent at this layer is heavy jitter WITHOUT order keeping.
  sim::NetemConfig cfg;
  cfg.delay_ns = 17 * sim::kMilli;   // mean of 30/5 ms one-way halves
  cfg.jitter_ns = 12 * sim::kMilli;  // spread wide enough to reorder
  cfg.keep_order = false;
  fast_slow.link->qdisc(0).set_config(cfg);

  const double goodput = fast_slow.run(5 * sim::kSecond);
  EXPECT_LT(goodput, 15.0) << "dupack-driven fast retransmits must collapse "
                              "goodput under reordering";
  EXPECT_GT(fast_slow.receiver->ooo_segments(), 100u);
  EXPECT_GE(fast_slow.sender->fast_retransmits(), 3u);
}

TEST(Tcp, RtoFiresWhenPathGoesSilent) {
  // The receiver is unreachable (no route back): the sender must not spin.
  sim::Network net;
  auto& a = net.add_node("a");
  auto& b = net.add_node("b");
  auto l = net.connect(a, A("fc00::1"), b, A("fc00::2"), 1'000'000, sim::kMilli);
  a.ns().table(0).add_route(P("::/0"), {A("fc00::2"), l.a_ifindex, 1});
  // b has no route back -> ACKs are dropped at b.
  AppMux mux_a(a), mux_b(b);
  TcpReceiver::Config rc;
  rc.addr = A("fc00::2");
  TcpReceiver recv(b, mux_b, rc);
  TcpSender::Config sc;
  sc.src = A("fc00::1");
  sc.dst = A("fc00::2");
  sc.duration = 3 * sim::kSecond;
  TcpSender snd(a, mux_a, sc);
  snd.start();
  net.run_for(4 * sim::kSecond);
  EXPECT_GT(snd.timeouts(), 0u);
  EXPECT_LT(snd.segments_sent(), 100u) << "backoff must bound retransmissions";
}

}  // namespace
}  // namespace srv6bpf::apps
