//! The three workloads and the seeded waves they offer.
//!
//! Every workload runs on the same 8-slice × 2048-slot
//! [`SlicedTestbed`] with 256 flows dealt round-robin over the slices by
//! sequence number; only the traffic and the NF differ. See README.md
//! for why each workload exists.

use pp_fastpath::{BatchPacket, SlicedTestbed};
use pp_trafficgen::gen::{GenConfig, SizeModel, TrafficGen, TrafficMix};

/// The shared deployment: 8 slices (NF servers) of 2048 park slots.
pub const TESTBED: SlicedTestbed = SlicedTestbed { slices: 8, slots: 2048 };

/// Packets per wave. On `tcp-chain-wave` the whole wave is parked at
/// once; 16384 packets peak near 10k occupied slots of 16384, so no slot
/// is ever evicted.
pub const WAVE_PACKETS: usize = 16_384;

/// Distinct generator flows.
pub const FLOWS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// UDP, enterprise sizes, MAC-swap NF, merge right after split.
    EnterpriseRoundtrip,
    /// UDP, fixed 64-byte frames: nothing parks, fixed costs dominate.
    MinSizeRoundtrip,
    /// 70 % TCP flows, Firewall → NAT → Maglev chain, whole-wave phases.
    TcpChainWave,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::EnterpriseRoundtrip, Workload::MinSizeRoundtrip, Workload::TcpChainWave];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EnterpriseRoundtrip => "enterprise-roundtrip",
            Workload::MinSizeRoundtrip => "min-size-roundtrip",
            Workload::TcpChainWave => "tcp-chain-wave",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when the NF is the datacenter chain and the wave is driven in
    /// two phases (all splits, the chain, all merges); false for the
    /// MAC-swap round trip that merges each packet or batch right away.
    pub fn is_chain(self) -> bool {
        self == Workload::TcpChainWave
    }

    /// The offered wave for `seed`: `WAVE_PACKETS` packets, slice
    /// `seq % 8`'s split port, readdressed to that slice's NF server.
    pub fn wave(self, seed: u64) -> Vec<BatchPacket> {
        let (sizes, mix) = match self {
            Workload::EnterpriseRoundtrip => (SizeModel::Enterprise, TrafficMix::UdpOnly),
            Workload::MinSizeRoundtrip => (SizeModel::Fixed(64), TrafficMix::UdpOnly),
            Workload::TcpChainWave => {
                (SizeModel::Enterprise, TrafficMix::TcpUdp { tcp_fraction: 0.7 })
            }
        };
        let mut gen = TrafficGen::new(GenConfig {
            rate_gbps: 4.0,
            sizes,
            mix,
            flows: FLOWS,
            seed,
            ..Default::default()
        });
        gen.take_count(WAVE_PACKETS)
            .into_iter()
            .map(|(_, pkt)| {
                let seq = pkt.seq();
                let slice = seq as usize % TESTBED.slices;
                let mut pkt =
                    BatchPacket { bytes: pkt.into_bytes(), port: TESTBED.split_port(slice), seq };
                TESTBED.stamp_server_mac(&mut pkt);
                pkt
            })
            .collect()
    }
}
