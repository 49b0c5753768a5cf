//! The network functions of the paper's evaluation (§6.1):
//!
//! * [`firewall::Firewall`] — linearly probes a blacklist of source
//!   prefixes (20 rules in the 3-NF chain, 1 rule in the 2-NF chain);
//! * [`nat::Nat`] — a MazuNAT-style source NAT with a flow table and
//!   incremental checksum updates;
//! * [`maglev::MaglevLb`] — the Maglev consistent-hashing L4 load balancer
//!   (lookup-table construction included);
//! * [`macswap::MacSwap`] — swaps Ethernet addresses (the multi-server and
//!   NF-cost experiments);
//! * [`synthetic`] — busy-loop NFs with calibrated per-packet cycles
//!   (NF-Light ≈ 50, NF-Medium ≈ 300, NF-Heavy ≈ 570; §6.3.3).

pub mod firewall;
pub mod macswap;
pub mod maglev;
pub mod nat;
pub mod synthetic;

pub use firewall::Firewall;
pub use macswap::MacSwap;
pub use maglev::MaglevLb;
pub use nat::Nat;
pub use synthetic::{Synthetic, NF_HEAVY_CYCLES, NF_LIGHT_CYCLES, NF_MEDIUM_CYCLES};

/// Which checksum an incremental update patches. The arithmetic is the
/// same for all of them; only UDP gives zero a special meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumField {
    /// Always computed (the IPv4 header, TCP): the raw RFC 1624 update.
    /// A TCP segment may legitimately carry `0x0000`.
    Raw,
    /// UDP (RFC 768): `0x0000` means "not computed" and stays that way,
    /// and a computed zero is transmitted as `0xFFFF`.
    Udp,
}

impl ChecksumField {
    /// The transport checksum of IP protocol `protocol`.
    pub fn transport(protocol: u8) -> ChecksumField {
        if protocol == 17 {
            ChecksumField::Udp
        } else {
            ChecksumField::Raw
        }
    }
}

/// Incremental internet-checksum update per RFC 1624 (equation 3):
/// `HC' = ~(~HC + ~m + m')` — the standard way NATs patch the IPv4 and
/// UDP/TCP checksums after rewriting addresses or ports without
/// re-summing payload bytes (essential here: the payload may be parked
/// in the switch). `field` picks the zero rules (see [`ChecksumField`]).
pub fn incremental_checksum_update(
    field: ChecksumField,
    old_ck: u16,
    old_word: u16,
    new_word: u16,
) -> u16 {
    if field == ChecksumField::Udp && old_ck == 0 {
        return 0;
    }
    let mut sum = u32::from(!old_ck) + u32::from(!old_word) + u32::from(new_word);
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    let ck = !(sum as u16);
    if field == ChecksumField::Udp && ck == 0 {
        0xFFFF
    } else {
        ck
    }
}

/// Applies [`incremental_checksum_update`] for a 32-bit field change (e.g.
/// an IPv4 address) by folding it as two 16-bit words.
pub fn incremental_checksum_update32(field: ChecksumField, old_ck: u16, old: u32, new: u32) -> u16 {
    let ck = incremental_checksum_update(field, old_ck, (old >> 16) as u16, (new >> 16) as u16);
    incremental_checksum_update(field, ck, old as u16, new as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Nf;
    use crate::nfs::maglev::Backend;
    use pp_packet::checksum::{Checksum, PseudoHeader};
    use pp_packet::{Packet, TcpPacketBuilder};
    use std::net::Ipv4Addr;

    /// Full recompute for comparison.
    fn full_udp_checksum(src: u32, dst: u32, seg: &[u8]) -> u16 {
        let mut c = Checksum::new();
        PseudoHeader { src, dst, protocol: 17, length: seg.len() as u16 }.add_to(&mut c);
        // Zero out the checksum field (bytes 6..8) while summing.
        c.add_bytes(&seg[..6]);
        c.add_bytes(&[0, 0]);
        c.add_bytes(&seg[8..]);
        let ck = c.finish();
        if ck == 0 {
            0xFFFF
        } else {
            ck
        }
    }

    #[test]
    fn incremental_matches_full_recompute_for_port_change() {
        let src = 0x0A000001u32;
        let dst = 0x0A000002u32;
        // A UDP segment: ports 1000→2000, len 12, payload [1,2,3,4].
        let mut seg = vec![0x03, 0xE8, 0x07, 0xD0, 0x00, 0x0C, 0, 0, 1, 2, 3, 4];
        let ck = full_udp_checksum(src, dst, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());

        // Rewrite the source port 1000 -> 5555.
        let new_port = 5555u16;
        let patched = incremental_checksum_update(ChecksumField::Udp, ck, 1000, new_port);
        seg[0..2].copy_from_slice(&new_port.to_be_bytes());
        seg[6..8].copy_from_slice(&patched.to_be_bytes());
        let expect = full_udp_checksum(src, dst, &seg);
        assert_eq!(patched, expect);
    }

    #[test]
    fn incremental_matches_full_recompute_for_address_change() {
        let src = 0x0A000001u32;
        let dst = 0x0A000002u32;
        let mut seg = vec![0x03, 0xE8, 0x07, 0xD0, 0x00, 0x0A, 0, 0, 0xAB, 0xCD];
        let ck = full_udp_checksum(src, dst, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());

        let new_src = 0xC0A80101u32; // 192.168.1.1
        let patched = incremental_checksum_update32(ChecksumField::Udp, ck, src, new_src);
        seg[6..8].copy_from_slice(&patched.to_be_bytes());
        let expect = full_udp_checksum(new_src, dst, &seg);
        assert_eq!(patched, expect);
    }

    #[test]
    fn zero_checksum_stays_zero() {
        assert_eq!(incremental_checksum_update(ChecksumField::Udp, 0, 1, 2), 0);
        assert_eq!(incremental_checksum_update32(ChecksumField::Udp, 0, 1, 2), 0);
    }

    #[test]
    fn raw_update_patches_a_zero_checksum() {
        // A zero TCP or IPv4 checksum is a real value: it must move.
        assert_eq!(incremental_checksum_update(ChecksumField::Raw, 0, 1, 2), 0xFFFE);
        assert_ne!(incremental_checksum_update32(ChecksumField::Raw, 0, 1, 2), 0);
        // ...and a raw update that lands on zero stays zero.
        assert_eq!(incremental_checksum_update(ChecksumField::Raw, 0xFFFE, 2, 1), 0);
    }

    #[test]
    fn identity_change_preserves_checksum() {
        // Changing a word to itself must not alter the checksum.
        let ck = 0x1234;
        for field in [ChecksumField::Raw, ChecksumField::Udp] {
            assert_eq!(incremental_checksum_update(field, ck, 0xABCD, 0xABCD), ck);
        }
    }

    /// The wire value of a TCP segment's checksum field.
    fn tcp_checksum(pkt: &Packet) -> u16 {
        let ck = pkt.parse().unwrap().offsets().transport + 16;
        u16::from_be_bytes([pkt.bytes()[ck], pkt.bytes()[ck + 1]])
    }

    /// A valid TCP segment whose checksum is `0x0000`. The first payload
    /// word is a fixup: setting it to the checksum computed with a zero
    /// fixup brings the one's-complement sum to `0xFFFF`.
    fn zero_checksum_tcp(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> Packet {
        let build = |fixup: u16| {
            let mut payload = vec![0x11; 40];
            payload[..2].copy_from_slice(&fixup.to_be_bytes());
            TcpPacketBuilder::new()
                .src_ip(src.0)
                .src_port(src.1)
                .dst_ip(dst.0)
                .dst_port(dst.1)
                .payload(&payload)
                .build()
        };
        let pkt = build(tcp_checksum(&build(0)));
        assert_eq!(tcp_checksum(&pkt), 0, "fixup must zero the checksum");
        assert!(pkt.parse().unwrap().verify_checksums());
        pkt
    }

    /// Regression: `0x0000` is a legitimate TCP checksum. NAT (both
    /// directions) and Maglev used to leave it unpatched as if it were
    /// UDP's "not computed", so the segment left with a bad checksum.
    #[test]
    fn zero_tcp_checksum_is_patched_by_nat_and_maglev() {
        let (client, server) = (Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(93, 184, 216, 34));
        let external = Ipv4Addr::new(198, 51, 100, 1);
        let mut nat = Nat::new(external);

        let mut out = zero_checksum_tcp((client, 4000), (server, 80));
        nat.process(&mut out);
        let ft = out.parse().unwrap().five_tuple();
        assert_eq!((ft.src_ip, ft.src_port), (external, Nat::POOL_START));
        assert!(out.parse().unwrap().verify_checksums(), "NAT out");

        let mut reply = zero_checksum_tcp((server, 80), (external, Nat::POOL_START));
        nat.process(&mut reply);
        let ft = reply.parse().unwrap().five_tuple();
        assert_eq!((ft.dst_ip, ft.dst_port), (client, 4000));
        assert!(reply.parse().unwrap().verify_checksums(), "NAT in");

        let backend = Ipv4Addr::new(10, 50, 0, 1);
        let mut lb = MaglevLb::new(vec![Backend { name: "b0".into(), ip: backend }]);
        let mut pkt = zero_checksum_tcp((client, 4000), (server, 80));
        lb.process(&mut pkt);
        assert_eq!(pkt.parse().unwrap().five_tuple().dst_ip, backend);
        assert!(pkt.parse().unwrap().verify_checksums(), "Maglev");
    }
}
