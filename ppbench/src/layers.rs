//! The traced passes: per-layer timings taken by calling each layer's
//! public functions from outside the program, with a span around every
//! call (see `trace.rs`).
//!
//! One traced round runs, on the scalar switch and over the same wave:
//! * `scalar.wave` — the scalar round trip re-driven packet by packet with
//!   a span around every `process_into` and every NF call;
//! * `engine.inline` — an engine worker's per-batch loop run inline on
//!   this thread: `process_batch` → reflect (or the chain) →
//!   `process_batch`, over engine-sized batches; the pipeline's stage
//!   profile is read after it;
//! * `rmt.parse` / `rmt.deparse` over the split-side and merge-side frames;
//! * `store.replay` — the wave's park operations replayed on a fresh
//!   `SlabStore`, and `store.lock` — one uncontended `SharedStore` lock
//!   and unlock per replayed operation;
//! * `nf.chain` — the datacenter chain over the split-side frames (chain
//!   workload only).

use crate::check::Reference;
use crate::rig::{chain_outputs, chain_slot, NfPool, Rig};
use crate::trace::Tracer;
use crate::workload::{Workload, TESTBED};
use payloadpark::flowstore::{shared, FlowStore, ParkTag, SlabStore};
use payloadpark::SharedStore;
use pp_fastpath::{reflect_outputs, BatchOutput, BatchPacket, EngineConfig};
use pp_nf::NfChain;
use pp_packet::{ParsedPacket, PayloadParkHeader};
use pp_rmt::parser::{deparse_phv_into, parse_packet_into};
use pp_rmt::{ParserConfig, Phv, BLOCK_BYTES};
use std::hint::black_box;
use std::ops::Range;

/// Pipeline stages of the chip (Tofino-like: 12 per pipe).
pub const STAGES: usize = 12;

/// One parked payload of the wave: where it parked, under which
/// generation, and the offered packet its payload came from.
struct ParkOp {
    slot: usize,
    clk: u16,
    /// `(offered packet index, transport payload offset)`.
    payload: (usize, usize),
}

/// The wave's park operations, grouped the way the engine batches them.
pub struct StoreReplay {
    ops: Vec<ParkOp>,
    /// Ranges of `ops` that park (and merge) together.
    groups: Vec<Range<usize>>,
    blocks: usize,
    slots: usize,
}

impl StoreReplay {
    /// Reads every parked payload's tag off the split-side frames. On the
    /// round-trip workloads payloads merge batch by batch (one engine
    /// batch = one group); on the chain workload the whole wave parks
    /// before anything merges (one group).
    pub fn new(workload: Workload, wave: &[BatchPacket], reference: &Reference) -> StoreReplay {
        let base = wave[0].seq;
        let mut ops = Vec::new();
        let mut groups = Vec::new();
        let batch = EngineConfig::default().batch as u64;
        let mut group_start = 0;
        let group_of = |seq: u64| if workload.is_chain() { 0 } else { (seq - base) / batch };
        let mut current = 0;
        for out in &reference.split_side {
            let g = group_of(out.seq);
            if g != current {
                groups.push(group_start..ops.len());
                group_start = ops.len();
                current = g;
            }
            let parsed = ParsedPacket::parse(&out.bytes).expect("split-side frames parse");
            let pp = PayloadParkHeader::new_checked(&out.bytes[parsed.offsets().payload..])
                .expect("split-side frames carry a PayloadPark header");
            if !pp.enabled() {
                continue;
            }
            let tag = pp.tag();
            let i = (out.seq - base) as usize;
            let offered = ParsedPacket::parse(&wave[i].bytes).expect("offered frames parse");
            ops.push(ParkOp {
                slot: usize::from(tag.table_index),
                clk: tag.generation,
                payload: (i, offered.offsets().payload),
            });
        }
        groups.push(group_start..ops.len());
        let cfg = TESTBED.config();
        StoreReplay { ops, groups, blocks: cfg.primary_blocks, slots: cfg.pipes[0].total_slots() }
    }

    /// Store operations per wave: a probe, a store per block, a merge and
    /// a load per block for every parked payload (each one lock in the
    /// store-backed program).
    pub fn op_count(&self) -> usize {
        self.ops.len() * (2 + 2 * self.blocks)
    }
}

/// Per-layer values of one traced round (ns per offered packet unless
/// the name says otherwise).
#[derive(Debug, Default, Clone)]
pub struct LayerRound {
    pub parse_ns: f64,
    pub deparse_ns: f64,
    pub stage_ns: [f64; STAGES],
    pub batch_ns: f64,
    pub reflect_ns: f64,
    pub chain_ns: f64,
    pub inline_ns: f64,
    pub probe_ns: f64,
    pub store_block_ns: f64,
    pub merge_ns: f64,
    pub load_block_ns: f64,
    pub lock_ns: f64,
    pub traced_scalar_ns: f64,
    pub occupancy_peak: usize,
}

impl LayerRound {
    pub fn mat_ns(&self) -> f64 {
        self.stage_ns.iter().sum()
    }
}

/// Buffers the traced passes reuse from round to round.
pub struct LayerScratch {
    parser: ParserConfig,
    phvs: Vec<Phv>,
    arena: Vec<u8>,
    split: BatchOutput,
    bounce: Vec<u8>,
    /// The scalar wave's merged packets and the inline loop's per-batch
    /// outputs, kept for the correctness check.
    pub scalar_out: BatchOutput,
    pub inline_out: Vec<BatchOutput>,
    nf_pool: NfPool,
    chain: Option<NfChain>,
    store: SlabStore,
    lock_store: SharedStore,
}

impl LayerScratch {
    pub fn new(rig: &mut Rig, workload: Workload, replay: &StoreReplay) -> LayerScratch {
        LayerScratch {
            parser: rig.scalar_parts().0.pipe(0).parser().clone(),
            phvs: Vec::new(),
            arena: Vec::new(),
            split: BatchOutput::new(),
            bounce: Vec::new(),
            scalar_out: BatchOutput::new(),
            inline_out: Vec::new(),
            nf_pool: NfPool::default(),
            chain: workload.is_chain().then(crate::rig::datacenter_chain),
            store: SlabStore::new(replay.slots, replay.blocks),
            lock_store: shared(SlabStore::new(replay.slots, replay.blocks)),
        }
    }
}

fn per_pkt(ns: u64, packets: usize) -> f64 {
    ns as f64 / packets as f64
}

/// Runs one traced round. The scalar and inline outputs are left in
/// `scratch` for the caller to check.
pub fn traced_round(
    tr: &mut Tracer,
    rig: &mut Rig,
    s: &mut LayerScratch,
    workload: Workload,
    wave: &[BatchPacket],
    reference: &Reference,
    replay: &StoreReplay,
) -> LayerRound {
    let n = wave.len();
    let mut r = LayerRound::default();

    let ((), t) = tr.timed("scalar.wave", |tr| scalar_wave(tr, rig, s, workload, wave));
    r.traced_scalar_ns = per_pkt(t, n);

    // The inline worker loop; the stage profile accumulates across it.
    let sw = rig.scalar_parts().0;
    for p in 0..sw.chip().pipes {
        sw.pipe_mut(p).reset_stage_profile();
    }
    let ((batch, reflect), inline) =
        tr.timed("engine.inline", |tr| inline_loop(tr, rig, s, workload, wave));
    r.inline_ns = per_pkt(inline, n);
    r.batch_ns = per_pkt(batch, n);
    r.reflect_ns = per_pkt(reflect, n);
    let sw = rig.scalar_parts().0;
    for p in 0..sw.chip().pipes {
        for (i, prof) in sw.pipe(p).stage_profile().iter().enumerate() {
            r.stage_ns[i] += per_pkt(prof.nanos, n);
        }
    }

    // Parser and deparser over both sides' frames.
    let (mut parse, mut deparse) = (0, 0);
    tr.span("rmt.parser", |tr| {
        for frames in [wave, &reference.returns[..]] {
            let (p, d) = parse_deparse(tr, s, frames);
            parse += p;
            deparse += d;
        }
    });
    r.parse_ns = per_pkt(parse, n);
    r.deparse_ns = per_pkt(deparse, n);

    if workload.is_chain() {
        r.chain_ns = per_pkt(chain_pass(tr, s, reference), n);
    }

    let store = tr.span("store.replay", |tr| store_replay(tr, s, wave, replay));
    r.probe_ns = per_pkt(store.0[0], n);
    r.store_block_ns = per_pkt(store.0[1], n);
    r.merge_ns = per_pkt(store.0[2], n);
    r.load_block_ns = per_pkt(store.0[3], n);
    r.occupancy_peak = store.1;
    let ops = replay.op_count();
    let lock = &s.lock_store;
    r.lock_ns = per_pkt(
        tr.timed("store.lock", |_| {
            for _ in 0..ops {
                black_box(&*lock.lock().expect("uncontended lock"));
            }
        })
        .1,
        n,
    );
    r
}

/// The scalar round trip, one span per switch pass and per NF call.
fn scalar_wave(
    tr: &mut Tracer,
    rig: &mut Rig,
    s: &mut LayerScratch,
    workload: Workload,
    wave: &[BatchPacket],
) {
    let sink = TESTBED.sink_mac();
    let (sw, _, chain) = rig.scalar_parts();
    s.scalar_out.clear();
    if !workload.is_chain() {
        for pkt in wave {
            s.split.clear();
            tr.enter("rmt.split");
            sw.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut s.split);
            tr.exit();
            for o in s.split.iter() {
                tr.enter("nf.bounce");
                s.bounce.clear();
                s.bounce.extend_from_slice(o.bytes);
                s.bounce[0..6].copy_from_slice(&sink.0);
                tr.exit();
                tr.enter("rmt.merge");
                sw.process_into(&s.bounce, o.port, o.seq, &mut s.scalar_out);
                tr.exit();
            }
        }
        return;
    }
    let chain = chain.expect("the chain workload builds chains");
    s.split.clear();
    tr.span("pass.split", |tr| {
        for pkt in wave {
            tr.enter("rmt.split");
            sw.process_into(&pkt.bytes, pkt.port, pkt.seq, &mut s.split);
            tr.exit();
        }
    });
    let slots = tr.span("pass.nf", |tr| {
        let slots = s.nf_pool.fill(s.split.iter().map(|o| (o.bytes, o.port, o.seq)));
        for slot in slots.iter_mut() {
            tr.span("nf.chain", |_| chain_slot(chain, slot, sink));
        }
        slots
    });
    tr.span("pass.merge", |tr| {
        for slot in slots.iter().filter(|slot| slot.forward) {
            let p = &slot.pkt;
            tr.span("rmt.merge", |_| {
                sw.process_into(p.bytes(), slot.port, p.seq(), &mut s.scalar_out)
            });
        }
    });
}

/// An engine worker's loop, inline: returns the summed `process_batch`
/// and reflect time.
fn inline_loop(
    tr: &mut Tracer,
    rig: &mut Rig,
    s: &mut LayerScratch,
    workload: Workload,
    wave: &[BatchPacket],
) -> (u64, u64) {
    let sink = TESTBED.sink_mac();
    let batch = EngineConfig::default().batch;
    let (sw, _, chain) = rig.scalar_parts();
    let (mut batch_ns, mut reflect_ns) = (0, 0);
    s.inline_out.clear();
    if !workload.is_chain() {
        for chunk in wave.chunks(batch) {
            batch_ns += tr.timed("rmt.process_batch", |_| sw.process_batch(chunk, &mut s.split)).1;
            let (back, t) = tr.timed("nf.reflect", |_| reflect_outputs(s.split.iter(), sink));
            reflect_ns += t;
            let mut merged = BatchOutput::new();
            batch_ns += tr.timed("rmt.process_batch", |_| sw.process_batch(&back, &mut merged)).1;
            s.inline_out.push(merged);
        }
        return (batch_ns, reflect_ns);
    }
    let chain = chain.expect("the chain workload builds chains");
    let mut to_servers = Vec::new();
    tr.span("pass.split", |tr| {
        for chunk in wave.chunks(batch) {
            let mut out = BatchOutput::new();
            batch_ns += tr.timed("rmt.process_batch", |_| sw.process_batch(chunk, &mut out)).1;
            to_servers.push(out);
        }
    });
    let back = tr.span("pass.nf", |_| {
        chain_outputs(chain, to_servers.iter().flat_map(BatchOutput::iter), sink)
    });
    tr.span("pass.merge", |tr| {
        for chunk in back.chunks(batch) {
            let mut merged = BatchOutput::new();
            batch_ns += tr.timed("rmt.process_batch", |_| sw.process_batch(chunk, &mut merged)).1;
            s.inline_out.push(merged);
        }
    });
    (batch_ns, reflect_ns)
}

/// Parses every frame into a pooled PHV, then deparses them all into one
/// arena; returns (parse ns, deparse ns).
fn parse_deparse(tr: &mut Tracer, s: &mut LayerScratch, frames: &[BatchPacket]) -> (u64, u64) {
    if s.phvs.len() < frames.len() {
        s.phvs.resize_with(frames.len(), Phv::default);
    }
    let parser = &s.parser;
    let phvs = &mut s.phvs;
    let parse = tr
        .timed("rmt.parse", |_| {
            for (phv, pkt) in phvs.iter_mut().zip(frames) {
                let ok = parse_packet_into(parser, &pkt.bytes, pkt.port, pkt.seq, phv).is_ok();
                debug_assert!(ok, "generated and switch-emitted frames parse");
            }
        })
        .1;
    s.arena.clear();
    let arena = &mut s.arena;
    let deparse = tr
        .timed("rmt.deparse", |_| {
            for (phv, pkt) in phvs.iter().zip(frames) {
                deparse_phv_into(phv, &pkt.bytes, arena);
            }
            black_box(&*arena);
        })
        .1;
    (parse, deparse)
}

/// The datacenter chain over pooled copies of the split-side frames.
fn chain_pass(tr: &mut Tracer, s: &mut LayerScratch, reference: &Reference) -> u64 {
    let frames = reference.split_side.iter().map(|p| (&p.bytes[..], p.port, p.seq));
    let slots = s.nf_pool.fill(frames);
    let chain = s.chain.as_mut().expect("the chain workload builds a layer chain");
    tr.timed("nf.chain", |_| {
        for slot in slots.iter_mut() {
            black_box(chain.process(&mut slot.pkt));
        }
    })
    .1
}

/// Replays the wave's park operations on `s.store`, group by group and
/// operation kind by operation kind (the batch path's stage order).
/// Returns ns per kind `[probe, store_block, merge, load_block]` and the
/// peak occupancy.
fn store_replay(
    tr: &mut Tracer,
    s: &mut LayerScratch,
    wave: &[BatchPacket],
    replay: &StoreReplay,
) -> ([u64; 4], usize) {
    let store = &mut s.store;
    let mut ns = [0u64; 4];
    let mut peak = 0;
    let mut block = [0u8; BLOCK_BYTES];
    for g in &replay.groups {
        let ops = &replay.ops[g.clone()];
        ns[0] += tr
            .timed("store.probe", |_| {
                for op in ops {
                    let tag = ParkTag { clk: op.clk, expiry: 1, xsum: 0, tsum: 0 };
                    black_box(store.probe(op.slot, tag));
                }
            })
            .1;
        peak = peak.max(store.occupancy());
        ns[1] += tr
            .timed("store.store_block", |_| {
                for j in 0..replay.blocks {
                    for op in ops {
                        let (i, off) = op.payload;
                        let data =
                            &wave[i].bytes[off + j * BLOCK_BYTES..off + (j + 1) * BLOCK_BYTES];
                        store.store_block(op.slot, j, data);
                    }
                }
            })
            .1;
        ns[2] += tr
            .timed("store.merge", |_| {
                for op in ops {
                    black_box(store.merge(op.slot, op.clk));
                }
            })
            .1;
        ns[3] += tr
            .timed("store.load_block", |_| {
                for j in 0..replay.blocks {
                    for op in ops {
                        store.load_block(op.slot, j, &mut block);
                        black_box(&block);
                    }
                }
            })
            .1;
    }
    (ns, peak)
}
