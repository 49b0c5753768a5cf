//! The reference wave and the per-wave correctness checks.
//!
//! At start-up the scalar switch runs the wave once in two phases (all
//! splits, the NF, all merges) and keeps what it saw: the split-side
//! frames the switch sent toward the NF servers, the frames the servers
//! sent back, the delivered packets and the park counters of one wave.
//!
//! A delivered packet is *correct* when it is delivered exactly once, to
//! the sink port, and
//! * on the round-trip workloads equals its offered packet with the
//!   destination MAC set to the sink;
//! * on the chain workload carries its parked payload restored, passes
//!   the IPv4 and transport checksum verification, and is byte-identical
//!   across every path (each path's wave is compared with the reference).
//!
//! Failures are counted per offered packet and never filtered: the
//! reference's own failures (for instance a TCP segment that leaves NAT
//! or the load balancer with a bad checksum) count on every path they
//! recur on, with their sequence numbers reported.

use crate::rig::chain_outputs;
use crate::workload::TESTBED;
use payloadpark::PipeControl;
use pp_fastpath::{reflect_outputs, BatchOutput, BatchPacket};
use pp_nf::NfChain;
use pp_packet::ParsedPacket;
use pp_rmt::{PortId, SwitchModel};

/// Counter deltas of one wave, in `CounterSnapshot::named` order.
pub type CounterDelta = [u64; 11];

/// `after - before`, field by field.
pub fn counter_delta(
    before: &payloadpark::CounterSnapshot,
    after: &payloadpark::CounterSnapshot,
) -> CounterDelta {
    let (b, a) = (before.named(), after.named());
    std::array::from_fn(|i| a[i].1 - b[i].1)
}

/// What one reference wave through the scalar switch produced.
pub struct Reference {
    /// Frames the switch sent toward the NF servers.
    pub split_side: Vec<BatchPacket>,
    /// Frames the NF servers sent back for merging.
    pub returns: Vec<BatchPacket>,
    /// Park counters of one wave.
    pub counters: CounterDelta,
    /// Wire bytes offered / sent toward the NF servers.
    pub offered_bytes: u64,
    pub split_bytes: u64,
    base: u64,
    /// The reference delivery per offered packet (index `seq - base`).
    delivered: Vec<Option<Vec<u8>>>,
    /// Why the reference delivery of a packet is incorrect, if it is.
    bad: Vec<Option<&'static str>>,
}

impl Reference {
    /// Runs `wave` through `sw` in two phases. `chain` is the NF on the
    /// chain workload; `None` means the MAC-swap bounce.
    pub fn record(
        sw: &mut SwitchModel,
        control: &PipeControl,
        chain: Option<&mut NfChain>,
        wave: &[BatchPacket],
    ) -> Reference {
        let base = wave[0].seq;
        for (i, p) in wave.iter().enumerate() {
            assert_eq!(p.seq, base + i as u64, "waves carry consecutive sequence numbers");
        }
        let sink = TESTBED.sink_mac();
        let is_chain = chain.is_some();
        let before = control.counters(sw);
        let mut split = BatchOutput::new();
        for pkt in wave {
            sw.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut split);
        }
        let split_side = split
            .iter()
            .map(|o| BatchPacket { bytes: o.bytes.to_vec(), port: o.port, seq: o.seq })
            .collect();
        let returns = match chain {
            Some(chain) => chain_outputs(chain, split.iter(), sink),
            None => reflect_outputs(split.iter(), sink),
        };
        let mut merged = BatchOutput::new();
        for pkt in &returns {
            sw.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut merged);
        }
        let counters = counter_delta(&before, &control.counters(sw));

        let mut delivered: Vec<Option<Vec<u8>>> = vec![None; wave.len()];
        let mut bad: Vec<Option<&'static str>> = vec![None; wave.len()];
        for o in merged.iter() {
            let i = (o.seq - base) as usize;
            if o.port != TESTBED.sink_port() {
                bad[i] = Some("delivered to the wrong port");
            }
            if delivered[i].replace(o.bytes.to_vec()).is_some() {
                bad[i] = Some("delivered twice");
            }
        }
        for (i, offered) in wave.iter().enumerate() {
            let Some(got) = &delivered[i] else {
                bad[i] = Some("not delivered");
                continue;
            };
            if bad[i].is_some() {
                continue;
            }
            bad[i] = if is_chain {
                chain_verdict(&offered.bytes, got)
            } else {
                bounce_verdict(&offered.bytes, got)
            };
        }
        Reference {
            split_side,
            returns,
            counters,
            offered_bytes: wave.iter().map(|p| p.bytes.len() as u64).sum(),
            split_bytes: split.wire_bytes() as u64,
            base,
            delivered,
            bad,
        }
    }

    /// Offered packets whose reference delivery is incorrect, with why.
    pub fn failures(&self) -> Vec<(u64, &'static str)> {
        self.bad
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|why| (self.base + i as u64, why)))
            .collect()
    }

    /// Checks one wave a path delivered against the reference.
    pub fn check(&self, visit: impl FnOnce(&mut dyn FnMut(u64, PortId, &[u8]))) -> WaveCheck {
        let n = self.delivered.len();
        let mut seen = vec![0u32; n];
        let mut diverged = vec![false; n];
        let mut extra = 0u64;
        visit(&mut |seq, port, bytes| {
            let Some(i) = seq.checked_sub(self.base).map(|i| i as usize).filter(|&i| i < n) else {
                extra += 1;
                return;
            };
            seen[i] += 1;
            if port != TESTBED.sink_port() || self.delivered[i].as_deref() != Some(bytes) {
                diverged[i] = true;
            }
        });
        let mut check = WaveCheck {
            offered: n as u64,
            failed: extra,
            diverged: extra,
            stray: extra,
            ..Default::default()
        };
        for i in 0..n {
            let differs = diverged[i] || seen[i] != u32::from(self.delivered[i].is_some());
            if differs {
                check.diverged += 1;
            }
            if differs || self.bad[i].is_some() {
                check.failed += 1;
                check.failed_seqs.push(self.base + i as u64);
            }
        }
        check
    }
}

/// The outcome of checking one delivered wave.
#[derive(Debug, Default)]
pub struct WaveCheck {
    pub offered: u64,
    /// Offered packets not delivered correctly (plus stray deliveries).
    pub failed: u64,
    /// Packets whose delivery differs from the reference's.
    pub diverged: u64,
    /// Deliveries of a sequence number the wave did not offer.
    pub stray: u64,
    pub failed_seqs: Vec<u64>,
}

/// Round-trip workloads: delivered == offered with the sink's MAC.
fn bounce_verdict(offered: &[u8], got: &[u8]) -> Option<&'static str> {
    let same =
        got.len() == offered.len() && got[0..6] == TESTBED.sink_mac().0 && got[6..] == offered[6..];
    (!same).then_some("differs from the offered packet")
}

/// Chain workload: the parked payload is restored and the IPv4 and
/// transport checksums verify.
fn chain_verdict(offered: &[u8], got: &[u8]) -> Option<&'static str> {
    let Ok(parsed) = ParsedPacket::parse(got) else {
        return Some("does not parse");
    };
    let offered = ParsedPacket::parse(offered).expect("generated packets parse");
    if parsed.payload() != offered.payload() {
        return Some("payload not restored");
    }
    if !parsed.verify_checksums() {
        return Some("bad checksum");
    }
    None
}
