// SO_ATTACH_FILTER-style socket filters on the app layer: SocketFilter
// compile/attach, per-packet accept/drop accounting, and AppMux per-port
// attachment driven end-to-end through a small topology, which ends with
// the network's drained audit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/sink.h"
#include "apps/socket_filter.h"
#include "cbpf/insn.h"
#include "cbpf/interp.h"
#include "expect_drained.h"
#include "net/packet.h"
#include "sim/network.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }

struct Lab {
  sim::Network net;
  sim::Node& s1;
  sim::Node& s2;
  sim::Network::Attachment link;

  Lab()
      : s1(net.add_node("S1")), s2(net.add_node("S2")),
        link(net.connect(s1, A("fc00:1::1"), s2, A("fc00:1::2"),
                         10'000'000'000ull, sim::kMilli)) {
    s1.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                               {A("fc00:1::2"), link.a_ifindex, 1});
    s2.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                               {A("fc00:1::1"), link.b_ifindex, 1});
  }

  void send_udp(std::uint16_t dport, std::size_t payload = 64) {
    net::PacketSpec spec;
    spec.src = A("fc00:1::1");
    spec.dst = A("fc00:1::2");
    spec.dst_port = dport;
    spec.payload_size = payload;
    s1.send(net::make_udp_packet(spec));
  }
};

TEST(SocketFilter, CompileErrorsSurfaceThroughFactory) {
  Lab lab;
  std::string err;
  auto f = apps::SocketFilter::from_expr(lab.s2.ns(), "bad", "udp and and",
                                         &err);
  EXPECT_EQ(f, nullptr);
  EXPECT_FALSE(err.empty());
}

TEST(SocketFilter, AcceptCountsAndClampsBytes) {
  Lab lab;
  std::string err;
  auto f = apps::SocketFilter::from_expr(lab.s2.ns(), "f", "udp and dst port 7",
                                         &err);
  ASSERT_NE(f, nullptr) << err;
  EXPECT_EQ(f->expr(), "udp and dst port 7");
  EXPECT_FALSE(f->classic().empty());

  net::PacketSpec spec;
  spec.src = A("fc00:1::1");
  spec.dst = A("fc00:1::2");
  spec.dst_port = 7;
  net::Packet match = net::make_udp_packet(spec);
  spec.dst_port = 8;
  net::Packet miss = net::make_udp_packet(spec);

  EXPECT_TRUE(f->accept(match));
  EXPECT_FALSE(f->accept(miss));
  EXPECT_TRUE(f->accept(match));
  EXPECT_EQ(f->accepted(), 2u);
  EXPECT_EQ(f->dropped(), 1u);
  // The filter returns 0xffff (accept all); byte accounting clamps to the
  // actual packet size.
  EXPECT_EQ(f->bytes_accepted(), 2 * match.size());
  f->reset_stats();
  EXPECT_EQ(f->accepted(), 0u);
  EXPECT_EQ(f->bytes_accepted(), 0u);
}

TEST(SocketFilter, FromRawClassicProgram) {
  Lab lab;
  // accept-all, written as raw classic BPF (tcpdump -ddd style input).
  std::string err;
  auto f = apps::SocketFilter::from_cbpf(
      lab.s2.ns(), "raw", {cbpf::stmt(cbpf::BPF_RET | cbpf::BPF_K, 0xffff)},
      &err);
  ASSERT_NE(f, nullptr) << err;
  net::PacketSpec spec;
  spec.src = A("fc00:1::1");
  spec.dst = A("fc00:1::2");
  EXPECT_TRUE(f->accept(net::make_udp_packet(spec)));

  // A classic program the checker rejects must fail the factory.
  auto bad = apps::SocketFilter::from_cbpf(
      lab.s2.ns(), "bad", {cbpf::stmt(cbpf::BPF_LD | cbpf::BPF_IMM, 1)}, &err);
  EXPECT_EQ(bad, nullptr);
  EXPECT_FALSE(err.empty());
}

// A classic load whose offset k + size wraps in 32 bits passes the classic
// check and fails on every packet. It attaches, and drops as the reference
// interpreter does.
TEST(SocketFilter, LoadsAtTheTopOfTheOffsetRangeAttachAndDrop) {
  using namespace cbpf;
  Lab lab;
  net::PacketSpec spec;
  spec.src = A("fc00:1::1");
  spec.dst = A("fc00:1::2");
  const net::Packet pkt = net::make_udp_packet(spec);
  for (const SockFilter load : {stmt(BPF_LD | BPF_W | BPF_ABS, 0xfffffffc),
                                stmt(BPF_LD | BPF_H | BPF_ABS, 0xfffffffe),
                                stmt(BPF_LD | BPF_B | BPF_ABS, 0xffffffff),
                                stmt(BPF_LDX | BPF_B | BPF_MSH, 0xffffffff)}) {
    const std::vector<SockFilter> prog = {load, stmt(BPF_RET | BPF_K, 0xffff)};
    SCOPED_TRACE(disasm(prog));
    std::string err;
    auto f = apps::SocketFilter::from_cbpf(lab.s2.ns(), "wrap", prog, &err);
    ASSERT_NE(f, nullptr) << err;
    const std::uint32_t want = run(prog, pkt.bytes().data(), pkt.size());
    EXPECT_EQ(want, 0u);
    EXPECT_EQ(f->run(pkt), want);
  }
}

TEST(SocketFilter, PerSocketFilterGatesUdpSink) {
  Lab lab;
  apps::AppMux mux(lab.s2);
  std::string err;
  auto f = apps::SocketFilter::from_expr(
      lab.s2.ns(), "sink7001", "udp and dst port 7001 and greater 90", &err);
  ASSERT_NE(f, nullptr) << err;
  apps::UdpSink sink(mux, 7001);
  mux.attach_udp_filter(7001, f);

  lab.send_udp(7001, 20);   // 68-byte packet: too short for "greater 90"
  lab.send_udp(7001, 200);  // passes
  lab.send_udp(7002, 200);  // other port: unmatched, not filtered
  lab.net.run_for(10 * sim::kMilli);

  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(f->accepted(), 1u);
  EXPECT_EQ(f->dropped(), 1u);
  EXPECT_EQ(mux.filtered(), 1u);
  EXPECT_EQ(mux.unmatched(), 1u);
  expect_drained(lab.net);
}

TEST(SocketFilter, AppMuxAttachesAndDetachesPerPortFilters) {
  Lab lab;
  apps::AppMux mux(lab.s2);
  apps::UdpSink sink(mux, 7001);

  std::string err;
  auto port_f = apps::SocketFilter::from_expr(lab.s2.ns(), "p",
                                              "src host fc00:1::1", &err);
  ASSERT_NE(port_f, nullptr) << err;
  mux.attach_udp_filter(7001, port_f);

  lab.send_udp(7001);  // passes the port filter -> metered
  lab.send_udp(7001);
  lab.net.run_for(10 * sim::kMilli);
  EXPECT_EQ(sink.packets(), 2u);
  EXPECT_EQ(port_f->accepted(), 2u);

  // Detach: the port's packets reach the sink without consulting the filter.
  mux.attach_udp_filter(7001, nullptr);
  lab.send_udp(7001);
  lab.net.run_for(10 * sim::kMilli);
  EXPECT_EQ(sink.packets(), 3u);
  EXPECT_EQ(port_f->accepted(), 2u);
  EXPECT_EQ(mux.filtered(), 0u);
  expect_drained(lab.net);
}

}  // namespace
}  // namespace srv6bpf
