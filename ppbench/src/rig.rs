//! The five deployments a workload runs on, and one untraced wave through
//! each of them.
//!
//! Every path runs the same Split → NF → Merge round trip over the shared
//! testbed, through the repository's public APIs only:
//!
//! | path       | round trip                                          |
//! |------------|-----------------------------------------------------|
//! | `scalar`   | `SlicedTestbed::scalar_roundtrip_into` / `SwitchModel::process_into` |
//! | `engine1`  | `Engine::process_roundtrip` / `Engine::process`, 1 worker |
//! | `engine2`  | the same, 2 workers                                 |
//! | `cluster1` | `Cluster::roundtrip_adverse` (calm) / `process_wave` + `process_return_wave`, 1 switch |
//! | `cluster2` | the same, 2 switches                                |
//!
//! On the round-trip workloads the NF is the testbed's MAC swap (each
//! packet, or engine batch, merges right after it splits); on the chain
//! workload each path owns a Firewall → NAT → Maglev chain and the wave
//! runs in two phases: all splits, the chain, all merges.

use crate::trace::Tracer;
use crate::workload::{Workload, TESTBED};
use payloadpark::oracle::{check_counters, OracleReport};
use payloadpark::{CounterSnapshot, PipeControl};
use pp_cluster::{Cluster, ClusterConfig};
use pp_fastpath::{BatchOutput, BatchPacket, Engine, EngineConfig, EngineOutput, OutputRef};
use pp_netsim::adversity::{AdversityProfile, FaultTally};
use pp_nf::nfs::maglev::{Backend, MaglevLb};
use pp_nf::nfs::{Firewall, Nat};
use pp_nf::{NfChain, NfVerdict};
use pp_packet::{MacAddr, Packet};
use pp_rmt::{PortId, SwitchModel, SwitchOutput};
use std::net::Ipv4Addr;

/// One execution path of the round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathId {
    Scalar,
    Engine1,
    Engine2,
    Cluster1,
    Cluster2,
}

impl PathId {
    pub const ALL: [PathId; 5] =
        [PathId::Scalar, PathId::Engine1, PathId::Engine2, PathId::Cluster1, PathId::Cluster2];

    pub fn name(self) -> &'static str {
        match self {
            PathId::Scalar => "scalar",
            PathId::Engine1 => "engine1",
            PathId::Engine2 => "engine2",
            PathId::Cluster1 => "cluster1",
            PathId::Cluster2 => "cluster2",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// The name of the span around one untraced wave on this path.
    pub fn span_name(self) -> &'static str {
        match self {
            PathId::Scalar => "path.scalar",
            PathId::Engine1 => "path.engine1",
            PathId::Engine2 => "path.engine2",
            PathId::Cluster1 => "path.cluster1",
            PathId::Cluster2 => "path.cluster2",
        }
    }
}

/// The paper's datacenter chain (§6.1): a 20-rule firewall whose rules
/// match no generated source, a source NAT, and a Maglev load balancer
/// over four backends — the chain `pp_harness`'s `FwNatLb` preset builds.
pub fn datacenter_chain() -> NfChain {
    let backends = (0..4u8)
        .map(|i| Backend { name: format!("backend-{i}"), ip: Ipv4Addr::new(10, 99, 0, i + 1) })
        .collect();
    NfChain::new(vec![
        Box::new(Firewall::with_rule_count(20)),
        Box::new(Nat::new(Ipv4Addr::new(198, 51, 100, 1))),
        Box::new(MaglevLb::with_table_size(backends, 65_537)),
    ])
}

/// Runs `chain` over split-side outputs (in the order given) and returns
/// the merge-side wave: each forwarded packet readdressed to `sink` and
/// sent back on the port it left by. Dropped packets are left out.
pub fn chain_outputs<'a>(
    chain: &mut NfChain,
    outputs: impl Iterator<Item = OutputRef<'a>>,
    sink: MacAddr,
) -> Vec<BatchPacket> {
    let owned = outputs.map(|o| BatchPacket { bytes: o.bytes.to_vec(), port: o.port, seq: o.seq });
    chain_packets(chain, owned, sink)
}

/// [`chain_outputs`] over packets the caller already owns.
fn chain_packets(
    chain: &mut NfChain,
    packets: impl Iterator<Item = BatchPacket>,
    sink: MacAddr,
) -> Vec<BatchPacket> {
    packets
        .filter_map(|p| {
            let mut pkt = Packet::with_seq(p.bytes, p.seq);
            if chain.process(&mut pkt).verdict == NfVerdict::Drop {
                return None;
            }
            let mut bytes = pkt.into_bytes();
            bytes[0..6].copy_from_slice(&sink.0);
            Some(BatchPacket { bytes, port: p.port, seq: p.seq })
        })
        .collect()
}

/// A split-side packet copied out for an NF pass, and the NF's verdict.
pub struct NfSlot {
    pub pkt: Packet,
    pub port: PortId,
    pub forward: bool,
}

/// Packets reused from wave to wave, so the scalar chain path's NF pass
/// allocates nothing once warm.
#[derive(Default)]
pub struct NfPool(Vec<NfSlot>);

impl NfPool {
    /// Copies `frames` — `(bytes, port, seq)` — into pooled packets and
    /// returns their slots.
    pub fn fill<'a>(
        &mut self,
        frames: impl Iterator<Item = (&'a [u8], PortId, u64)>,
    ) -> &mut [NfSlot] {
        let mut n = 0;
        for (bytes, port, seq) in frames {
            if n == self.0.len() {
                self.0.push(NfSlot { pkt: Packet::new(Vec::new()), port, forward: false });
            }
            let slot = &mut self.0[n];
            let buf = slot.pkt.bytes_mut();
            buf.clear();
            buf.extend_from_slice(bytes);
            slot.pkt.set_seq(seq);
            slot.port = port;
            slot.forward = false;
            n += 1;
        }
        &mut self.0[..n]
    }
}

/// Runs `chain` on one pooled packet and readdresses it to `sink` if the
/// chain forwards it.
pub fn chain_slot(chain: &mut NfChain, slot: &mut NfSlot, sink: MacAddr) {
    slot.forward = chain.process(&mut slot.pkt).verdict == NfVerdict::Forward;
    if slot.forward {
        slot.pkt.bytes_mut()[0..6].copy_from_slice(&sink.0);
    }
}

/// The five deployments of one workload plus the per-path scratch.
pub struct Rig {
    workload: Workload,
    scalar: SwitchModel,
    control: PipeControl,
    engines: [Engine; 2],
    clusters: [Cluster; 2],
    /// One chain per path (chain workload only), indexed by `PathId`.
    chains: Vec<NfChain>,
    split: BatchOutput,
    scalar_out: BatchOutput,
    nf_pool: NfPool,
    engine_in: Vec<BatchPacket>,
    engine_out: EngineOutput,
    cluster_out: Vec<SwitchOutput>,
}

impl Rig {
    /// Builds and L2-wires all five deployments (and, on the chain
    /// workload, each path's NF chain): everything up to the first packet.
    /// Each deployment's build is a span in `tr`.
    pub fn build(workload: Workload, tr: &mut Tracer) -> Rig {
        tr.enter("setup.build");
        let (scalar, control) = tr.span("build.scalar", |_| TESTBED.build_scalar());
        let engine = |workers| {
            TESTBED
                .build_engine(EngineConfig { workers, ..EngineConfig::default() })
                .expect("engine over the testbed")
        };
        let cluster = |switches| {
            let mut c = Cluster::new(&TESTBED.config(), ClusterConfig::slab(switches))
                .expect("cluster over the testbed");
            TESTBED.wire(&mut |mac, port| c.l2_add(mac, port));
            c
        };
        let engines =
            [tr.span("build.engine1", |_| engine(1)), tr.span("build.engine2", |_| engine(2))];
        let clusters =
            [tr.span("build.cluster1", |_| cluster(1)), tr.span("build.cluster2", |_| cluster(2))];
        let chains = if workload.is_chain() {
            tr.span("build.chains", |_| PathId::ALL.iter().map(|_| datacenter_chain()).collect())
        } else {
            Vec::new()
        };
        tr.exit();
        Rig {
            workload,
            scalar,
            control,
            engines,
            clusters,
            chains,
            split: BatchOutput::new(),
            scalar_out: BatchOutput::new(),
            nf_pool: NfPool::default(),
            engine_in: Vec::new(),
            engine_out: EngineOutput::default(),
            cluster_out: Vec::new(),
        }
    }

    /// The scalar switch, its control plane and the scalar path's chain
    /// (chain workload only): what the reference wave and the traced
    /// passes run on.
    pub fn scalar_parts(&mut self) -> (&mut SwitchModel, &PipeControl, Option<&mut NfChain>) {
        (&mut self.scalar, &self.control, self.chains.first_mut())
    }

    /// Untimed preparation for [`Rig::run`]: the engine API takes its wave
    /// by value, so the copy it consumes is made here, outside the clock.
    pub fn prepare(&mut self, path: PathId, wave: &[BatchPacket]) {
        if matches!(path, PathId::Engine1 | PathId::Engine2) {
            self.engine_in = wave.to_vec();
        }
    }

    /// One wave through `path` (after [`Rig::prepare`]); the delivered
    /// packets stay in the rig until the next wave on the same path.
    pub fn run(&mut self, path: PathId, wave: &[BatchPacket]) {
        let sink = TESTBED.sink_mac();
        let chain = self.workload.is_chain();
        match path {
            PathId::Scalar if !chain => {
                TESTBED.scalar_roundtrip_into(&mut self.scalar, wave, &mut self.scalar_out);
            }
            PathId::Scalar => self.scalar_chain_wave(wave),
            PathId::Engine1 | PathId::Engine2 => {
                let engine = &mut self.engines[path.index() - 1];
                let inputs = std::mem::take(&mut self.engine_in);
                self.engine_out = if chain {
                    let to_servers = engine.process(inputs);
                    let nf = &mut self.chains[path.index()];
                    let back = chain_outputs(nf, to_servers.sorted_refs().into_iter(), sink);
                    drop(to_servers);
                    engine.process(back)
                } else {
                    engine.process_roundtrip(inputs, sink)
                };
            }
            PathId::Cluster1 | PathId::Cluster2 => {
                let cluster = &mut self.clusters[path.index() - 3];
                self.cluster_out = if chain {
                    let to_servers = cluster.process_wave(wave);
                    let nf = &mut self.chains[path.index()];
                    let back = chain_packets(nf, to_servers.into_iter(), sink);
                    cluster.process_return_wave(back)
                } else {
                    let calm = AdversityProfile::disabled();
                    cluster.roundtrip_adverse(wave, sink, &calm, &mut FaultTally::default())
                };
            }
        }
    }

    /// The scalar chain path: all splits, the chain over a pooled copy of
    /// each split-side packet, all merges — allocation-free once warm.
    fn scalar_chain_wave(&mut self, wave: &[BatchPacket]) {
        let sink = TESTBED.sink_mac();
        self.split.clear();
        self.scalar_out.clear();
        for pkt in wave {
            self.scalar.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut self.split);
        }
        let chain = &mut self.chains[PathId::Scalar.index()];
        let slots = self.nf_pool.fill(self.split.iter().map(|o| (o.bytes, o.port, o.seq)));
        for slot in slots.iter_mut() {
            chain_slot(chain, slot, sink);
        }
        for slot in slots.iter() {
            if slot.forward {
                let p = &slot.pkt;
                self.scalar.process_into(p.bytes(), slot.port, p.seq(), &mut self.scalar_out);
            }
        }
    }

    /// Visits the packets the last wave on `path` delivered:
    /// `(seq, egress port, bytes)`.
    pub fn for_each_delivered(&self, path: PathId, mut f: impl FnMut(u64, PortId, &[u8])) {
        match path {
            PathId::Scalar => self.scalar_out.iter().for_each(|o| f(o.seq, o.port, o.bytes)),
            PathId::Engine1 | PathId::Engine2 => {
                self.engine_out.iter().for_each(|o| f(o.seq, o.port, o.bytes))
            }
            PathId::Cluster1 | PathId::Cluster2 => {
                self.cluster_out.iter().for_each(|o| f(o.seq, o.port, &o.bytes))
            }
        }
    }

    /// The path's park accounting after the last wave: the repository's
    /// conformance oracle (splits = merges + drops + evictions + occupied
    /// slots) and the cumulative counters.
    pub fn oracle(&mut self, path: PathId) -> (OracleReport, CounterSnapshot) {
        match path {
            PathId::Scalar => {
                let c = self.control.counters(&self.scalar);
                (check_counters(&c, self.control.occupancy(&self.scalar)), c)
            }
            PathId::Engine1 | PathId::Engine2 => {
                let engine = &mut self.engines[path.index() - 1];
                let c = engine.counters();
                (check_counters(&c, engine.occupancy()), c)
            }
            PathId::Cluster1 | PathId::Cluster2 => {
                let cluster = &self.clusters[path.index() - 3];
                (cluster.check_oracle(), cluster.cluster_counters())
            }
        }
    }

    /// Bytes the 2-switch cluster has carried between switches so far.
    pub fn mesh_bytes(&self) -> u64 {
        self.clusters[1].counters().link_bytes
    }
}
