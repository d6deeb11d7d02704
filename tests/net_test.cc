#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "net/checksum.h"
#include "net/ip6.h"
#include "net/packet.h"
#include "net/srh.h"
#include "net/transport.h"

namespace srv6bpf::net {
namespace {

// ---- addresses -------------------------------------------------------------

struct AddrCase {
  const char* text;
  const char* canonical;
};

class AddrParse : public ::testing::TestWithParam<AddrCase> {};

TEST_P(AddrParse, RoundTrips) {
  const auto& c = GetParam();
  auto a = Ipv6Addr::parse(c.text);
  ASSERT_TRUE(a.has_value()) << c.text;
  EXPECT_EQ(a->to_string(), c.canonical);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AddrParse,
    ::testing::Values(
        AddrCase{"::", "::"}, AddrCase{"::1", "::1"}, AddrCase{"1::", "1::"},
        AddrCase{"fc00::1", "fc00::1"},
        AddrCase{"2001:db8:0:0:0:0:2:1", "2001:db8::2:1"},
        AddrCase{"2001:DB8::1", "2001:db8::1"},
        AddrCase{"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8"},
        AddrCase{"::ffff:192.0.2.1", "::ffff:c000:201"},
        AddrCase{"a:0:0:b::", "a:0:0:b::"},
        AddrCase{"0:0:1::", "0:0:1::"}));

TEST(Ipv6Addr, RejectsMalformed) {
  for (const char* bad :
       {"", ":", ":::", "1::2::3", "12345::", "1:2:3:4:5:6:7",
        "1:2:3:4:5:6:7:8:9", "g::1", "1.2.3.4", "::1.2.3.256", "fe80:"}) {
    EXPECT_FALSE(Ipv6Addr::parse(bad).has_value()) << bad;
  }
}

TEST(Ipv6Addr, PrefixMatching) {
  const auto p = Ipv6Addr::must_parse("fc00:1200::");
  EXPECT_TRUE(Ipv6Addr::must_parse("fc00:1234::1").in_prefix(p, 24));
  EXPECT_FALSE(Ipv6Addr::must_parse("fc00:1234::1").in_prefix(p, 32));
  EXPECT_TRUE(Ipv6Addr::must_parse("aaaa::").in_prefix(p, 0));
  EXPECT_TRUE(p.in_prefix(p, 128));
}

TEST(Prefix, ParseForms) {
  auto p = Prefix::parse("fc00:1::/48");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->len, 48);
  auto host = Prefix::parse("fc00::1");
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->len, 128);
  EXPECT_FALSE(Prefix::parse("fc00::/129").has_value());
  EXPECT_FALSE(Prefix::parse("fc00::/x").has_value());
}

// ---- IPv6 header ----------------------------------------------------------------

TEST(Ipv6Header, WriteParseRoundTrip) {
  Ipv6Header h;
  h.traffic_class = 0x12;
  h.flow_label = 0xabcde;
  h.payload_length = 1234;
  h.next_header = kProtoUdp;
  h.hop_limit = 63;
  h.src = Ipv6Addr::must_parse("fc00::1");
  h.dst = Ipv6Addr::must_parse("fc00::2");

  std::uint8_t buf[kIpv6HeaderSize];
  h.write(buf);
  EXPECT_EQ(buf[0] >> 4, 6);
  auto parsed = Ipv6Header::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->traffic_class, 0x12);
  EXPECT_EQ(parsed->flow_label, 0xabcdeu);
  EXPECT_EQ(parsed->payload_length, 1234);
  EXPECT_EQ(parsed->hop_limit, 63);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
}

TEST(Ipv6Header, RejectsNonV6) {
  std::uint8_t buf[kIpv6HeaderSize] = {};
  buf[0] = 0x40;  // version 4
  EXPECT_FALSE(Ipv6Header::parse(buf).has_value());
}

// ---- SRH ---------------------------------------------------------------------------

TEST(Srh, BuildReversesSegmentsAndSetsSl) {
  const auto s1 = Ipv6Addr::must_parse("fc00::a");
  const auto s2 = Ipv6Addr::must_parse("fc00::b");
  const auto s3 = Ipv6Addr::must_parse("fc00::c");
  const Ipv6Addr segs[] = {s1, s2, s3};  // travel order
  auto bytes = build_srh(kProtoUdp, segs);
  SrhView v(bytes.data(), bytes.size());
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.segments_left(), 2);
  EXPECT_EQ(v.last_entry(), 2);
  EXPECT_EQ(v.segment(0), s3);  // final
  EXPECT_EQ(v.segment(2), s1);  // first hop
  EXPECT_EQ(v.current_segment(), s1);
  EXPECT_EQ(v.total_len(), 8u + 3 * 16);
  EXPECT_EQ(v.next_header(), kProtoUdp);
}

TEST(Srh, TlvAreaAndLookup) {
  const Ipv6Addr segs[] = {Ipv6Addr::must_parse("fc00::a"),
                           Ipv6Addr::must_parse("fc00::b")};
  auto tlvs = build_dm_tlv(0x1122334455667788ull);
  auto ctrl = build_controller_tlv(kTlvController,
                                   Ipv6Addr::must_parse("fc00::99"), 4242);
  tlvs.insert(tlvs.end(), ctrl.begin(), ctrl.end());
  auto bytes = build_srh(kProtoIpv6, segs, tlvs);
  SrhView v(bytes.data(), bytes.size());
  ASSERT_TRUE(v.valid());
  EXPECT_TRUE(v.tlvs_well_formed());
  EXPECT_EQ(v.tlv_len(), kDmTlvSize + kControllerTlvSize);
  EXPECT_EQ(v.find_tlv(kTlvDelayMeasurement), 8 + 32);
  EXPECT_EQ(v.find_tlv(kTlvController),
            static_cast<int>(8 + 32 + kDmTlvSize));
  EXPECT_EQ(v.find_tlv(77), -1);
}

TEST(Srh, UnalignedTlvsRejectedByBuilder) {
  const Ipv6Addr segs[] = {Ipv6Addr::must_parse("fc00::a")};
  std::vector<std::uint8_t> bad(5, 0);  // not a multiple of 8
  EXPECT_THROW(build_srh(kProtoUdp, segs, bad), std::invalid_argument);
}

TEST(Srh, MalformedTlvChainDetected) {
  const Ipv6Addr segs[] = {Ipv6Addr::must_parse("fc00::a")};
  std::vector<std::uint8_t> tlvs(8, 0);
  tlvs[0] = 30;
  tlvs[1] = 200;  // runs past the area
  auto bytes = build_srh(kProtoUdp, segs, tlvs);
  SrhView v(bytes.data(), bytes.size());
  EXPECT_TRUE(v.valid());
  EXPECT_FALSE(v.tlvs_well_formed());
}

TEST(Srh, PadTlvs) {
  auto p1 = build_padn(1);
  EXPECT_EQ(p1.size(), 1u);
  EXPECT_EQ(p1[0], kTlvPad1);
  auto p4 = build_padn(4);
  EXPECT_EQ(p4.size(), 4u);
  EXPECT_EQ(p4[0], kTlvPadN);
  EXPECT_EQ(p4[1], 2);
}

TEST(Srh, ValidRejectsTruncationAndBadType) {
  const Ipv6Addr segs[] = {Ipv6Addr::must_parse("fc00::a")};
  auto bytes = build_srh(kProtoUdp, segs);
  SrhView short_view(bytes.data(), bytes.size() - 1);
  EXPECT_FALSE(short_view.valid());
  bytes[2] = 3;  // wrong routing type
  SrhView bad_type(bytes.data(), bytes.size());
  EXPECT_FALSE(bad_type.valid());
}

// ---- transport + checksum ------------------------------------------------------------

TEST(Udp, HeaderRoundTrip) {
  UdpHeader h{1111, 2222, 100, 0xbeef};
  std::uint8_t buf[kUdpHeaderSize];
  h.write(buf);
  auto p = UdpHeader::parse(buf);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->src_port, 1111);
  EXPECT_EQ(p->dst_port, 2222);
  EXPECT_EQ(p->length, 100);
  EXPECT_EQ(p->checksum, 0xbeef);
}

TEST(Tcp, HeaderRoundTrip) {
  TcpHeader h;
  h.src_port = 40000;
  h.dst_port = 5001;
  h.seq = 0xdeadbeef;
  h.ack = 0x01020304;
  h.flags = kTcpAck | kTcpPsh;
  h.window = 0xffff;
  std::uint8_t buf[kTcpHeaderSize];
  h.write(buf);
  auto p = TcpHeader::parse(buf);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seq, 0xdeadbeefu);
  EXPECT_EQ(p->ack, 0x01020304u);
  EXPECT_EQ(p->flags, kTcpAck | kTcpPsh);
}

TEST(Checksum, VerifiesOwnOutput) {
  const auto src = Ipv6Addr::must_parse("fc00::1");
  const auto dst = Ipv6Addr::must_parse("fc00::2");
  std::vector<std::uint8_t> payload(37, 0xab);
  payload[6] = 0;
  payload[7] = 0;
  const std::uint16_t c = transport_checksum(src, dst, kProtoUdp, payload);
  payload[6] = static_cast<std::uint8_t>(c >> 8);
  payload[7] = static_cast<std::uint8_t>(c & 0xff);
  EXPECT_TRUE(transport_checksum_ok(src, dst, kProtoUdp, payload));
  payload[9] ^= 1;
  EXPECT_FALSE(transport_checksum_ok(src, dst, kProtoUdp, payload));
}

// ---- Packet buffer --------------------------------------------------------------------

TEST(Packet, PushPullFront) {
  const std::uint8_t data[] = {1, 2, 3, 4};
  Packet p(data);
  EXPECT_EQ(p.size(), 4u);
  std::uint8_t* hdr = p.push_front(2);
  hdr[0] = 9;
  hdr[1] = 8;
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.data()[0], 9);
  EXPECT_EQ(p.data()[2], 1);
  p.pull_front(3);
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.data()[0], 2);
}

TEST(Packet, PushBeyondHeadroomReallocates) {
  const std::uint8_t data[] = {42};
  Packet p(data, /*headroom=*/4);
  std::uint8_t* hdr = p.push_front(100);
  std::memset(hdr, 0, 100);
  EXPECT_EQ(p.size(), 101u);
  EXPECT_EQ(p.data()[100], 42);
}

TEST(Packet, ExpandAtInsertsAndRemoves) {
  const std::uint8_t data[] = {1, 2, 3, 4};
  Packet p(data);
  ASSERT_TRUE(p.expand_at(2, 2));
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.data()[0], 1);
  EXPECT_EQ(p.data()[2], 0);
  EXPECT_EQ(p.data()[4], 3);
  ASSERT_TRUE(p.expand_at(2, -2));
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.data()[2], 3);
  EXPECT_FALSE(p.expand_at(10, 2));
  EXPECT_FALSE(p.expand_at(2, -10));
}

TEST(Packet, MakeUdpPacketPlain) {
  PacketSpec spec;
  spec.src = Ipv6Addr::must_parse("fc00::1");
  spec.dst = Ipv6Addr::must_parse("fc00::2");
  spec.payload_size = 64;
  Packet p = make_udp_packet(spec);
  EXPECT_EQ(p.size(), 40u + 8 + 64);
  Ipv6View ip(p.data());
  EXPECT_EQ(ip.next_header(), kProtoUdp);
  EXPECT_EQ(ip.payload_length(), 72);
  auto loc = locate_transport(p);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->proto, kProtoUdp);
  EXPECT_EQ(loc->offset, 40u);
  // Checksum must verify.
  EXPECT_TRUE(transport_checksum_ok(spec.src, spec.dst, kProtoUdp,
                                    {p.data() + 40, p.size() - 40}));
}

TEST(Packet, MakeUdpPacketWithSrh) {
  PacketSpec spec;
  spec.src = Ipv6Addr::must_parse("fc00::1");
  spec.segments = {Ipv6Addr::must_parse("fc00::e"),
                   Ipv6Addr::must_parse("fc00::2")};
  spec.payload_size = 64;
  Packet p = make_udp_packet(spec);
  Ipv6View ip(p.data());
  EXPECT_EQ(ip.next_header(), kProtoRouting);
  EXPECT_EQ(ip.dst(), spec.segments.front());
  auto srh = p.srh();
  ASSERT_TRUE(srh.has_value());
  EXPECT_EQ(srh->num_segments(), 2u);
  auto loc = locate_transport(p);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->offset, 40u + 40u);
}

// Given bytes, the datagram carries exactly them: the IPv6 payload length
// and the UDP length follow their size, not spec.payload_size, and the
// checksum verifies against the final destination, with or without an SRH.
TEST(Packet, MakeUdpPacketCarriesGivenBytes) {
  PacketSpec spec;
  spec.src = Ipv6Addr::must_parse("fc00::1");
  spec.dst = Ipv6Addr::must_parse("fc00::2");
  spec.payload_size = 64;
  const std::uint8_t bytes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const std::size_t udp_len = kUdpHeaderSize + sizeof bytes;
  for (const bool srh : {false, true}) {
    SCOPED_TRACE(srh ? "with an SRH" : "without an SRH");
    if (srh) spec.segments = {Ipv6Addr::must_parse("fc00::e"), spec.dst};
    Packet p = make_udp_packet(spec, bytes);
    const auto loc = locate_transport(p);
    ASSERT_TRUE(loc.has_value());
    ASSERT_EQ(p.size(), loc->offset + udp_len);
    EXPECT_EQ(p.ipv6().payload_length(), p.size() - kIpv6HeaderSize);
    const auto udp = UdpHeader::parse({p.data() + loc->offset, udp_len});
    EXPECT_EQ(udp->length, udp_len);
    EXPECT_TRUE(std::ranges::equal(
        std::span(p.data() + loc->offset + kUdpHeaderSize, sizeof bytes),
        bytes));
    EXPECT_TRUE(transport_checksum_ok(spec.src, spec.dst, kProtoUdp,
                                      {p.data() + loc->offset, udp_len}));
  }
}

TEST(Packet, LocateTransportThroughEncap) {
  // IPv6(SRH(IPv6(UDP))) — the DM probe shape.
  PacketSpec inner;
  inner.src = Ipv6Addr::must_parse("fc00::1");
  inner.dst = Ipv6Addr::must_parse("fc00::2");
  inner.payload_size = 16;
  Packet p = make_udp_packet(inner);

  const Ipv6Addr segs[] = {Ipv6Addr::must_parse("fc00::e"),
                           Ipv6Addr::must_parse("fc00::2")};
  auto srh = build_srh(kProtoIpv6, segs);
  Ipv6Header outer;
  outer.src = inner.src;
  outer.dst = segs[0];
  outer.next_header = kProtoRouting;
  outer.payload_length = static_cast<std::uint16_t>(srh.size() + p.size());
  std::uint8_t* front = p.push_front(kIpv6HeaderSize + srh.size());
  outer.write(front);
  std::memcpy(front + kIpv6HeaderSize, srh.data(), srh.size());

  auto loc = locate_transport(p);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->proto, kProtoUdp);
  EXPECT_EQ(loc->inner_ip, 40u + 40u);
  EXPECT_EQ(loc->offset, 40u + 40u + 40u);
}

}  // namespace
}  // namespace srv6bpf::net
