//! A MazuNAT-style source NAT.
//!
//! Rewrites (src IP, src port) of outbound flows to an external address
//! with a per-flow allocated port, keeping a bidirectional flow table.
//! Checksums are patched *incrementally* (RFC 1624) — crucial under
//! PayloadPark, where the payload bytes are parked in the switch and a full
//! checksum recompute would be impossible.

use crate::chain::{Nf, NfResult};
use crate::nfs::{incremental_checksum_update, incremental_checksum_update32, ChecksumField};
use pp_packet::parse::FiveTuple;
use pp_packet::Packet;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Cycles for a flow-table hit.
pub const NAT_HIT_CYCLES: u64 = 60;
/// Cycles for allocating a new flow entry.
pub const NAT_ALLOC_CYCLES: u64 = 300;

/// Statistics kept by the NAT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NatStats {
    /// Packets translated outbound.
    pub translated_out: u64,
    /// Packets translated inbound (reverse path).
    pub translated_in: u64,
    /// New flows allocated.
    pub flows_allocated: u64,
    /// Packets dropped because the port pool was exhausted.
    pub pool_exhausted: u64,
}

/// The NAT NF.
#[derive(Debug)]
pub struct Nat {
    external_ip: Ipv4Addr,
    next_port: u16,
    /// Outbound: original 5-tuple → allocated external port.
    out_map: HashMap<FiveTuple, u16>,
    /// Inbound: external port → original (src ip, src port).
    in_map: HashMap<u16, (Ipv4Addr, u16)>,
    stats: NatStats,
}

impl Nat {
    /// First port of the allocation pool.
    pub const POOL_START: u16 = 1024;

    /// Creates a NAT translating to `external_ip`.
    pub fn new(external_ip: Ipv4Addr) -> Self {
        Nat {
            external_ip,
            next_port: Self::POOL_START,
            out_map: HashMap::new(),
            in_map: HashMap::new(),
            stats: NatStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> NatStats {
        self.stats
    }

    /// Number of active flows.
    pub fn flow_count(&self) -> usize {
        self.out_map.len()
    }

    fn rewrite_outbound(pkt: &mut Packet, new_ip: Ipv4Addr, new_port: u16) {
        let (ip_off, tr_off, old_src_ip, old_src_port, proto) = {
            let parsed = pkt.parse().expect("caller verified");
            let ft = parsed.five_tuple();
            (parsed.offsets().ip, parsed.offsets().transport, ft.src_ip, ft.src_port, ft.protocol)
        };
        let bytes = pkt.bytes_mut();
        // Rewrite the IPv4 source address and fix the IP header checksum.
        bytes[ip_off + 12..ip_off + 16].copy_from_slice(&new_ip.octets());
        let ip_ck = u16::from_be_bytes([bytes[ip_off + 10], bytes[ip_off + 11]]);
        let ip_ck = incremental_checksum_update32(
            ChecksumField::Raw,
            ip_ck,
            u32::from(old_src_ip),
            u32::from(new_ip),
        );
        bytes[ip_off + 10..ip_off + 12].copy_from_slice(&ip_ck.to_be_bytes());
        // Rewrite the transport source port and patch the UDP/TCP checksum
        // (which also covers the pseudo-header source address).
        bytes[tr_off..tr_off + 2].copy_from_slice(&new_port.to_be_bytes());
        let ck_off = if proto == 17 { tr_off + 6 } else { tr_off + 16 };
        let old_ck = u16::from_be_bytes([bytes[ck_off], bytes[ck_off + 1]]);
        let field = ChecksumField::transport(proto);
        let ck =
            incremental_checksum_update32(field, old_ck, u32::from(old_src_ip), u32::from(new_ip));
        let ck = incremental_checksum_update(field, ck, old_src_port, new_port);
        bytes[ck_off..ck_off + 2].copy_from_slice(&ck.to_be_bytes());
    }

    fn rewrite_inbound(pkt: &mut Packet, orig_ip: Ipv4Addr, orig_port: u16) {
        let (ip_off, tr_off, old_dst_ip, old_dst_port, proto) = {
            let parsed = pkt.parse().expect("caller verified");
            let ft = parsed.five_tuple();
            (parsed.offsets().ip, parsed.offsets().transport, ft.dst_ip, ft.dst_port, ft.protocol)
        };
        let bytes = pkt.bytes_mut();
        bytes[ip_off + 16..ip_off + 20].copy_from_slice(&orig_ip.octets());
        let ip_ck = u16::from_be_bytes([bytes[ip_off + 10], bytes[ip_off + 11]]);
        let ip_ck = incremental_checksum_update32(
            ChecksumField::Raw,
            ip_ck,
            u32::from(old_dst_ip),
            u32::from(orig_ip),
        );
        bytes[ip_off + 10..ip_off + 12].copy_from_slice(&ip_ck.to_be_bytes());
        bytes[tr_off + 2..tr_off + 4].copy_from_slice(&orig_port.to_be_bytes());
        let ck_off = if proto == 17 { tr_off + 6 } else { tr_off + 16 };
        let old_ck = u16::from_be_bytes([bytes[ck_off], bytes[ck_off + 1]]);
        let field = ChecksumField::transport(proto);
        let ck =
            incremental_checksum_update32(field, old_ck, u32::from(old_dst_ip), u32::from(orig_ip));
        let ck = incremental_checksum_update(field, ck, old_dst_port, orig_port);
        bytes[ck_off..ck_off + 2].copy_from_slice(&ck.to_be_bytes());
    }
}

impl Nf for Nat {
    fn name(&self) -> &str {
        "NAT"
    }

    fn process(&mut self, pkt: &mut Packet) -> NfResult {
        let Ok(parsed) = pkt.parse() else {
            return NfResult::forward(NAT_HIT_CYCLES);
        };
        let ft = parsed.five_tuple();

        // Reverse path: traffic addressed to our external IP on an
        // allocated port.
        if ft.dst_ip == self.external_ip {
            if let Some(&(ip, port)) = self.in_map.get(&ft.dst_port) {
                Self::rewrite_inbound(pkt, ip, port);
                self.stats.translated_in += 1;
                return NfResult::forward(NAT_HIT_CYCLES);
            }
        }

        // Outbound path.
        if let Some(&ext_port) = self.out_map.get(&ft) {
            Self::rewrite_outbound(pkt, self.external_ip, ext_port);
            self.stats.translated_out += 1;
            return NfResult::forward(NAT_HIT_CYCLES);
        }
        // Allocate a new flow.
        if self.out_map.len() >= usize::from(u16::MAX - Self::POOL_START) {
            self.stats.pool_exhausted += 1;
            return NfResult::drop(NAT_HIT_CYCLES);
        }
        let ext_port = self.next_port;
        self.next_port = self.next_port.checked_add(1).unwrap_or(Self::POOL_START);
        self.out_map.insert(ft, ext_port);
        self.in_map.insert(ext_port, (ft.src_ip, ft.src_port));
        self.stats.flows_allocated += 1;
        Self::rewrite_outbound(pkt, self.external_ip, ext_port);
        self.stats.translated_out += 1;
        NfResult::forward(NAT_ALLOC_CYCLES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::NfVerdict;
    use pp_packet::builder::UdpPacketBuilder;
    use pp_packet::ethernet::EthernetFrame;
    use pp_packet::ipv4::Ipv4Header;
    use pp_packet::udp::UdpHeader;

    fn ext_ip() -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, 1)
    }

    fn flow_pkt(src_port: u16) -> Packet {
        UdpPacketBuilder::new()
            .src_ip(Ipv4Addr::new(10, 0, 0, 5))
            .dst_ip(Ipv4Addr::new(93, 184, 216, 34))
            .src_port(src_port)
            .dst_port(80)
            .total_size(200, 3)
            .build()
    }

    fn checksums_valid(pkt: &Packet) -> bool {
        let eth = EthernetFrame::new_checked(pkt.bytes()).unwrap();
        let ip = Ipv4Header::new_checked(eth.payload()).unwrap();
        if !ip.verify_checksum() {
            return false;
        }
        let udp = UdpHeader::new_checked(ip.payload()).unwrap();
        udp.verify_checksum(u32::from(ip.src()), u32::from(ip.dst()))
    }

    #[test]
    fn outbound_rewrites_and_keeps_checksums_valid() {
        let mut nat = Nat::new(ext_ip());
        let mut p = flow_pkt(4000);
        let r = nat.process(&mut p);
        assert_eq!(r.verdict, NfVerdict::Forward);
        assert_eq!(r.cycles, NAT_ALLOC_CYCLES);
        let ft = p.parse().unwrap().five_tuple();
        assert_eq!(ft.src_ip, ext_ip());
        assert_eq!(ft.src_port, Nat::POOL_START);
        assert!(checksums_valid(&p), "checksums must stay valid after NAT");
        assert_eq!(nat.flow_count(), 1);
    }

    #[test]
    fn same_flow_hits_cache() {
        let mut nat = Nat::new(ext_ip());
        let mut p1 = flow_pkt(4000);
        nat.process(&mut p1);
        let mut p2 = flow_pkt(4000);
        let r = nat.process(&mut p2);
        assert_eq!(r.cycles, NAT_HIT_CYCLES);
        assert_eq!(p2.parse().unwrap().five_tuple().src_port, Nat::POOL_START);
        assert_eq!(nat.stats().flows_allocated, 1);
        assert_eq!(nat.stats().translated_out, 2);
    }

    #[test]
    fn distinct_flows_get_distinct_ports() {
        let mut nat = Nat::new(ext_ip());
        let mut ports = std::collections::HashSet::new();
        for sp in 0..50u16 {
            let mut p = flow_pkt(3000 + sp);
            nat.process(&mut p);
            ports.insert(p.parse().unwrap().five_tuple().src_port);
        }
        assert_eq!(ports.len(), 50);
    }

    #[test]
    fn reverse_path_restores_original() {
        let mut nat = Nat::new(ext_ip());
        let mut out = flow_pkt(4000);
        nat.process(&mut out);
        let ext_port = out.parse().unwrap().five_tuple().src_port;

        // A reply: server → external ip/port.
        let mut reply = UdpPacketBuilder::new()
            .src_ip(Ipv4Addr::new(93, 184, 216, 34))
            .dst_ip(ext_ip())
            .src_port(80)
            .dst_port(ext_port)
            .total_size(200, 4)
            .build();
        let r = nat.process(&mut reply);
        assert_eq!(r.verdict, NfVerdict::Forward);
        let ft = reply.parse().unwrap().five_tuple();
        assert_eq!(ft.dst_ip, Ipv4Addr::new(10, 0, 0, 5));
        assert_eq!(ft.dst_port, 4000);
        assert!(checksums_valid(&reply));
        assert_eq!(nat.stats().translated_in, 1);
    }

    #[test]
    fn payload_untouched_by_nat() {
        // Shallow NF guarantee: only headers change.
        let mut nat = Nat::new(ext_ip());
        let mut p = flow_pkt(4000);
        let payload_before = p.parse().unwrap().payload().to_vec();
        nat.process(&mut p);
        assert_eq!(p.parse().unwrap().payload(), &payload_before[..]);
    }

    #[test]
    fn non_ip_traffic_passes() {
        let mut nat = Nat::new(ext_ip());
        let mut junk = Packet::new(vec![0u8; 30]);
        let r = nat.process(&mut junk);
        assert_eq!(r.verdict, NfVerdict::Forward);
    }
}
