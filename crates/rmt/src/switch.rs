//! The whole-switch model: pipes, L2 forwarding and recirculation.
//!
//! A [`SwitchModel`] owns one [`Pipeline`] per pipe, an L2 exact-match
//! forwarding table (dst MAC → port), and the recirculation plumbing. Ports
//! map onto pipes in consecutive groups of `ports_per_pipe` (paper §5), and
//! pipes never share stateful state.

use crate::chip::{ChipProfile, PortId};
use crate::parser::parse_packet_into;
use crate::phv::Phv;
use crate::pipeline::Pipeline;
use crate::trace::{decision, FlightRecorder, TraceEvent, TracePoint, TraceReason};
use core::hash::{BuildHasherDefault, Hasher};
use core::mem;
use pp_packet::MacAddr;
use std::collections::HashMap;

/// FNV-1a, used for the L2 table.
///
/// The forwarding lookup runs once per pipeline pass on a 6-byte key;
/// SipHash's per-lookup setup costs more than the rest of egress
/// resolution. FNV is not DoS-resistant, but the L2 table is populated by
/// the control plane, not by packet contents.
#[derive(Default)]
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type L2Table = HashMap<MacAddr, PortId, BuildHasherDefault<FnvHasher>>;

/// Counters kept by the switch model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets offered to the switch.
    pub received: u64,
    /// Packets emitted on an egress port.
    pub emitted: u64,
    /// Packets dropped by a program verdict (e.g. premature-eviction drop).
    pub dropped_by_program: u64,
    /// Packets dropped because no L2 route existed.
    pub dropped_no_route: u64,
    /// Packets dropped at the recirculation limit.
    pub dropped_recirc_limit: u64,
    /// Packets the parser rejected.
    pub parse_errors: u64,
    /// Recirculation passes performed.
    pub recirculations: u64,
}

impl SwitchStats {
    /// Accumulates another switch's statistics into this one (aggregating
    /// sharded workers must account for every field, so this lives next
    /// to the struct).
    pub fn add(&mut self, other: &SwitchStats) {
        self.received += other.received;
        self.emitted += other.emitted;
        self.dropped_by_program += other.dropped_by_program;
        self.dropped_no_route += other.dropped_no_route;
        self.dropped_recirc_limit += other.dropped_recirc_limit;
        self.parse_errors += other.parse_errors;
        self.recirculations += other.recirculations;
    }

    /// The statistics paired with stable snake_case names, for telemetry
    /// exporters.
    pub fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("received", self.received),
            ("emitted", self.emitted),
            ("dropped_by_program", self.dropped_by_program),
            ("dropped_no_route", self.dropped_no_route),
            ("dropped_recirc_limit", self.dropped_recirc_limit),
            ("parse_errors", self.parse_errors),
            ("recirculations", self.recirculations),
        ]
    }
}

/// One packet leaving the switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchOutput {
    /// Egress port.
    pub port: PortId,
    /// Packet bytes as deparsed.
    pub bytes: Vec<u8>,
    /// Nanoseconds spent inside the switch (pipeline passes plus
    /// recirculation penalties).
    pub latency_ns: u64,
    /// Sequence number carried through from ingress.
    pub seq: u64,
}

/// One packet offered to [`SwitchModel::process_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPacket {
    /// Wire bytes.
    pub bytes: Vec<u8>,
    /// Ingress port.
    pub port: PortId,
    /// Sequence number (simulation bookkeeping).
    pub seq: u64,
}

impl From<SwitchOutput> for BatchPacket {
    /// Re-offering an egressed packet to the switch (NF reflection, merge
    /// return waves): the egress port doubles as the re-ingress port in
    /// the testbed wiring, and the sequence number rides along.
    fn from(o: SwitchOutput) -> Self {
        BatchPacket { bytes: o.bytes, port: o.port, seq: o.seq }
    }
}

#[derive(Debug, Clone, Copy)]
struct OutputItem {
    port: PortId,
    seq: u64,
    latency_ns: u64,
    start: usize,
    end: usize,
}

/// A borrowed view of one packet inside a [`BatchOutput`].
#[derive(Debug, Clone, Copy)]
pub struct OutputRef<'a> {
    /// Egress port.
    pub port: PortId,
    /// Sequence number carried through from ingress.
    pub seq: u64,
    /// Nanoseconds spent inside the switch.
    pub latency_ns: u64,
    /// Deparsed wire bytes (a slice of the batch arena).
    pub bytes: &'a [u8],
}

impl OutputRef<'_> {
    /// Copies this view out into an owned [`SwitchOutput`] (the one place
    /// a clone happens — hot paths stay on the borrowed view).
    pub fn to_owned(&self) -> SwitchOutput {
        SwitchOutput {
            port: self.port,
            bytes: self.bytes.to_vec(),
            latency_ns: self.latency_ns,
            seq: self.seq,
        }
    }
}

/// Egress side of one batch pass: all deparsed packets share a single byte
/// arena, so a batch costs two allocations amortized over every packet
/// instead of one `Vec` per packet. Reuse the same `BatchOutput` across
/// calls to keep the arena's capacity warm.
#[derive(Debug, Clone, Default)]
pub struct BatchOutput {
    bytes: Vec<u8>,
    items: Vec<OutputItem>,
}

impl BatchOutput {
    /// An empty output buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty output buffer with room for `packets` packets totalling
    /// `bytes` wire bytes, so filling it up to that size never reallocates.
    pub fn with_capacity(packets: usize, bytes: usize) -> Self {
        BatchOutput { bytes: Vec::with_capacity(bytes), items: Vec::with_capacity(packets) }
    }

    /// Drops the contents, keeping the allocations.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.items.clear();
    }

    /// Packets held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no packet egressed.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total wire bytes emitted (the arena length).
    pub fn wire_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The `i`-th egressed packet.
    pub fn get(&self, i: usize) -> OutputRef<'_> {
        let it = self.items[i];
        OutputRef {
            port: it.port,
            seq: it.seq,
            latency_ns: it.latency_ns,
            bytes: &self.bytes[it.start..it.end],
        }
    }

    /// The `i`-th egressed packet's bytes, for rewriting in place (an NF
    /// reflecting the packet straight out of the arena).
    pub fn bytes_mut(&mut self, i: usize) -> &mut [u8] {
        let it = self.items[i];
        &mut self.bytes[it.start..it.end]
    }

    /// Iterates over the egressed packets in egress order.
    pub fn iter(&self) -> impl Iterator<Item = OutputRef<'_>> {
        self.items.iter().map(|it| OutputRef {
            port: it.port,
            seq: it.seq,
            latency_ns: it.latency_ns,
            bytes: &self.bytes[it.start..it.end],
        })
    }

    /// Copies the batch out into owned per-packet [`SwitchOutput`]s.
    ///
    /// This clones every packet's bytes — it exists for tests and cold
    /// paths that want owned data. Hot paths should consume the borrowed
    /// views from [`BatchOutput::iter`] / [`BatchOutput::get`] instead.
    pub fn to_switch_outputs(&self) -> Vec<SwitchOutput> {
        self.iter().map(|o| o.to_owned()).collect()
    }

    /// Appends the outputs of another batch (used when merging per-worker
    /// results).
    pub fn append(&mut self, other: &BatchOutput) {
        let base = self.bytes.len();
        self.bytes.extend_from_slice(&other.bytes);
        self.items.extend(other.items.iter().map(|it| OutputItem {
            start: it.start + base,
            end: it.end + base,
            ..*it
        }));
    }

    fn push_deparsed(
        &mut self,
        pipe: &Pipeline,
        phv: &Phv,
        frame: &[u8],
        item: (PortId, u64, u64),
    ) {
        let start = self.bytes.len();
        pipe.deparse_into(phv, frame, &mut self.bytes);
        self.items.push(OutputItem {
            port: item.0,
            seq: item.1,
            latency_ns: item.2,
            start,
            end: self.bytes.len(),
        });
    }
}

/// A multi-pipe RMT switch.
pub struct SwitchModel {
    chip: ChipProfile,
    pipes: Vec<Pipeline>,
    l2: L2Table,
    stats: SwitchStats,
    // Pooled scratch for the batch path, retained across process_batch
    // calls so a warm switch performs no heap allocation per batch.
    phv_pool: Vec<Phv>,
    origin: Vec<usize>,
    by_pipe: Vec<Vec<usize>>,
    // Ping-pong buffers for recirculation: the wire image of the current
    // recirculation pass lives in `recirc_frame` (the PHV's spans point
    // into it) while `recirc_spare` is free for the next deparse.
    recirc_frame: Vec<u8>,
    recirc_spare: Vec<u8>,
    // Flight recorder: sampled per-packet trace events at the parse,
    // gateway and deparse boundaries (pre-allocated ring, overwrite-oldest).
    recorder: FlightRecorder,
}

impl SwitchModel {
    /// Assembles a switch from per-pipe programs.
    ///
    /// Panics if the number of pipelines does not match the chip's pipe
    /// count — a wiring bug, not a runtime condition.
    pub fn new(chip: ChipProfile, pipes: Vec<Pipeline>) -> Self {
        assert_eq!(pipes.len(), chip.pipes, "one pipeline per pipe required");
        SwitchModel {
            chip,
            pipes,
            l2: L2Table::default(),
            stats: SwitchStats::default(),
            phv_pool: Vec::new(),
            origin: Vec::new(),
            by_pipe: Vec::new(),
            recirc_frame: Vec::new(),
            recirc_spare: Vec::new(),
            recorder: FlightRecorder::default(),
        }
    }

    /// The flight recorder (read side: iterate, dump as JSONL).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Mutable flight-recorder access (enable/disable, clear).
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.recorder
    }

    /// Master telemetry switch: toggles the flight recorder and per-stage
    /// pipeline profiling together. Both default to on; turning them off
    /// gives the zero-telemetry baseline used by the overhead benchmarks.
    pub fn set_telemetry(&mut self, on: bool) {
        self.recorder.set_enabled(on);
        for pipe in &mut self.pipes {
            pipe.set_profiling(on);
        }
    }

    /// The chip profile.
    pub fn chip(&self) -> &ChipProfile {
        &self.chip
    }

    /// Adds (or replaces) an L2 forwarding entry.
    pub fn l2_add(&mut self, mac: MacAddr, port: PortId) {
        self.l2.insert(mac, port);
    }

    /// Looks up the L2 table.
    pub fn l2_lookup(&self, mac: MacAddr) -> Option<PortId> {
        self.l2.get(&mac).copied()
    }

    /// The virtual port id used when a packet recirculates into `pipe` on
    /// `channel`.
    pub fn recirc_port(&self, pipe: usize, channel: u8) -> PortId {
        self.chip.recirc_port(pipe, channel)
    }

    /// Immutable access to a pipe's pipeline (counters, registers, report).
    pub fn pipe(&self, idx: usize) -> &Pipeline {
        &self.pipes[idx]
    }

    /// Mutable access to a pipe's pipeline (control plane).
    pub fn pipe_mut(&mut self, idx: usize) -> &mut Pipeline {
        &mut self.pipes[idx]
    }

    /// Switch-level statistics.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Processes one packet arriving on `in_port`; returns zero or one
    /// outputs (zero when dropped).
    ///
    /// The PHV comes from the switch's pool; only the returned output is a
    /// fresh allocation. Per-packet hot loops that can reuse a
    /// [`BatchOutput`] should call [`SwitchModel::process_into`] instead.
    pub fn process(&mut self, bytes: &[u8], in_port: PortId, seq: u64) -> Vec<SwitchOutput> {
        self.stats.received += 1;
        let pipe_idx = self.chip.pipe_of(in_port);
        debug_assert!(pipe_idx < self.pipes.len(), "port {in_port} beyond chip");

        let mut phv = self.phv_pool.pop().unwrap_or_default();
        let parsed =
            parse_packet_into(self.pipes[pipe_idx].parser(), bytes, in_port, seq, &mut phv);
        if parsed.is_err() {
            self.stats.parse_errors += 1;
            self.recorder.record(TraceEvent {
                seq,
                port: in_port.0,
                pipe: pipe_idx as u8,
                point: TracePoint::Parse,
                decision: 0,
                reason: TraceReason::ParseError,
            });
            self.phv_pool.push(phv);
            return Vec::new();
        }
        self.pipes[pipe_idx].execute(&mut phv);
        let result = match self.finish_passes(&mut phv, bytes, pipe_idx, seq) {
            Some((port, final_pipe, latency_ns, recirced)) => {
                let frame: &[u8] = if recirced { &self.recirc_frame } else { bytes };
                let deparsed = self.pipes[final_pipe].deparse(&phv, frame);
                vec![SwitchOutput { port, bytes: deparsed, latency_ns, seq }]
            }
            None => Vec::new(),
        };
        self.phv_pool.push(phv);
        result
    }

    /// Processes one packet, appending its egress (if any) to `out`.
    ///
    /// The packet's PHV comes from the switch's pool and the deparsed bytes
    /// land in `out`'s arena, so a warm switch driven through a reused
    /// `out` performs no heap allocation per packet. `out` is appended to,
    /// not cleared — the caller owns its lifecycle.
    pub fn process_into(&mut self, bytes: &[u8], in_port: PortId, seq: u64, out: &mut BatchOutput) {
        self.stats.received += 1;
        let pipe_idx = self.chip.pipe_of(in_port);
        debug_assert!(pipe_idx < self.pipes.len(), "port {in_port} beyond chip");

        let mut phv = self.phv_pool.pop().unwrap_or_default();
        let parsed =
            parse_packet_into(self.pipes[pipe_idx].parser(), bytes, in_port, seq, &mut phv);
        if parsed.is_err() {
            self.stats.parse_errors += 1;
            self.recorder.record(TraceEvent {
                seq,
                port: in_port.0,
                pipe: pipe_idx as u8,
                point: TracePoint::Parse,
                decision: 0,
                reason: TraceReason::ParseError,
            });
            self.phv_pool.push(phv);
            return;
        }
        self.pipes[pipe_idx].execute(&mut phv);
        if let Some((port, final_pipe, latency_ns, recirced)) =
            self.finish_passes(&mut phv, bytes, pipe_idx, seq)
        {
            let frame: &[u8] = if recirced { &self.recirc_frame } else { bytes };
            out.push_deparsed(&self.pipes[final_pipe], &phv, frame, (port, seq, latency_ns));
        }
        self.phv_pool.push(phv);
    }

    /// Runs the verdict/recirculation loop on an executed PHV and resolves
    /// egress. `frame` is the source frame `phv` was parsed from. Returns
    /// `(egress port, pipe holding the deparser, accumulated latency,
    /// recirculated)`, or `None` when the packet was dropped. When
    /// `recirculated` is true the PHV's spans reference the switch-owned
    /// `recirc_frame` buffer instead of `frame` — the caller must deparse
    /// from there before the next packet's recirculation overwrites it.
    fn finish_passes(
        &mut self,
        phv: &mut Phv,
        frame: &[u8],
        mut pipe_idx: usize,
        seq: u64,
    ) -> Option<(PortId, usize, u64, bool)> {
        let mut latency = self.chip.pipeline_latency_ns;
        let mut recirced = false;
        // A pass is traced when its program took an anomalous decision
        // (state lost, reclaimed, or rejected — see
        // `decision::ANOMALY_MASK`), dropped the packet, or hit the
        // 1-in-64 sample that also covers plain and normal-decision
        // traffic; `traced` carries the last pass's state to the egress
        // event below. All checks are branch-and-mask — no allocation.
        let mut traced;
        loop {
            traced = self.recorder.enabled()
                && (phv.trace_flags & decision::ANOMALY_MASK != 0
                    || phv.verdict.drop
                    || self.recorder.sample_plain(seq));
            if traced {
                self.recorder.record(TraceEvent {
                    seq,
                    port: phv.ingress_port.0,
                    pipe: pipe_idx as u8,
                    point: TracePoint::Gateway,
                    decision: phv.trace_flags,
                    reason: TraceReason::None,
                });
            }
            if phv.verdict.drop {
                self.stats.dropped_by_program += 1;
                if traced {
                    self.recorder.record(TraceEvent {
                        seq,
                        port: phv.ingress_port.0,
                        pipe: pipe_idx as u8,
                        point: TracePoint::Deparse,
                        decision: phv.trace_flags,
                        reason: TraceReason::DropProgram,
                    });
                }
                return None;
            }
            let Some(target) = phv.verdict.recirculate else { break };
            if phv.recirc_count >= self.chip.max_recirculations {
                self.stats.dropped_recirc_limit += 1;
                if traced {
                    self.recorder.record(TraceEvent {
                        seq,
                        port: phv.ingress_port.0,
                        pipe: pipe_idx as u8,
                        point: TracePoint::Deparse,
                        decision: phv.trace_flags,
                        reason: TraceReason::DropRecircLimit,
                    });
                }
                return None;
            }
            debug_assert!(target.pipe < self.pipes.len(), "recirculation to unknown pipe");
            self.stats.recirculations += 1;
            latency += self.chip.pipeline_latency_ns + self.chip.recirculation_penalty_ns;
            if traced {
                self.recorder.record(TraceEvent {
                    seq,
                    port: phv.ingress_port.0,
                    pipe: pipe_idx as u8,
                    point: TracePoint::Deparse,
                    decision: phv.trace_flags,
                    reason: TraceReason::Recirculated,
                });
            }

            // Deparse on the current pipe into the spare recirculation
            // buffer, re-parse on the target pipe's recirculation port.
            // The two switch-owned buffers ping-pong (the PHV's spans must
            // keep referencing the pass it was parsed from), so steady-state
            // recirculation allocates nothing. User metadata is bridged
            // across the pass (Tofino recirculation headers provide the
            // same facility).
            let mut wire = mem::take(&mut self.recirc_spare);
            wire.clear();
            let src: &[u8] = if recirced { &self.recirc_frame } else { frame };
            self.pipes[pipe_idx].deparse_into(phv, src, &mut wire);
            let port = self.recirc_port(target.pipe, target.channel);
            let saved_meta = phv.meta;
            let saved_recirc = phv.recirc_count;
            let saved_flags = phv.trace_flags;
            let parsed = parse_packet_into(self.pipes[target.pipe].parser(), &wire, port, seq, phv);
            self.recirc_spare = mem::replace(&mut self.recirc_frame, wire);
            recirced = true;
            if parsed.is_err() {
                self.stats.parse_errors += 1;
                self.recorder.record(TraceEvent {
                    seq,
                    port: port.0,
                    pipe: target.pipe as u8,
                    point: TracePoint::Parse,
                    decision: saved_flags,
                    reason: TraceReason::ParseError,
                });
                return None;
            }
            phv.recirc_count = saved_recirc + 1;
            phv.meta = saved_meta;
            // Decision bits accumulate across passes so the final egress
            // event carries the packet's whole story.
            phv.trace_flags = saved_flags | decision::RECIRCULATE;
            self.pipes[target.pipe].execute(phv);
            pipe_idx = target.pipe;
        }

        let egress = phv.verdict.egress.or_else(|| self.l2.get(&phv.eth.dst).copied());
        match egress {
            Some(port) => {
                self.stats.emitted += 1;
                if traced {
                    self.recorder.record(TraceEvent {
                        seq,
                        port: port.0,
                        pipe: pipe_idx as u8,
                        point: TracePoint::Deparse,
                        decision: phv.trace_flags,
                        reason: TraceReason::Egress,
                    });
                }
                Some((port, pipe_idx, latency, recirced))
            }
            None => {
                self.stats.dropped_no_route += 1;
                if traced {
                    self.recorder.record(TraceEvent {
                        seq,
                        port: phv.ingress_port.0,
                        pipe: pipe_idx as u8,
                        point: TracePoint::Deparse,
                        decision: phv.trace_flags,
                        reason: TraceReason::DropNoRoute,
                    });
                }
                None
            }
        }
    }

    /// Processes a whole batch of packets, appending egressed packets to
    /// `out` (cleared first) in input order.
    ///
    /// Equivalent to calling [`SwitchModel::process`] on each packet in
    /// order — byte-identical outputs, counters and register state — as
    /// long as recirculation targets pipes whose register arrays are not
    /// also written by first-pass traffic (true for PayloadPark, whose
    /// annex pipe is recirculation-only). The batch amortizes MAT dispatch
    /// (stage-outer execution via [`Pipeline::execute_batch`]) and
    /// deparses every packet into one shared arena.
    pub fn process_batch(&mut self, inputs: &[BatchPacket], out: &mut BatchOutput) {
        out.clear();
        self.stats.received += inputs.len() as u64;

        // Parse everything up front (parsing touches no shared state) into
        // the pooled, arrival-ordered PHV buffer; per-pipe index lists let
        // each pipe batch-execute its packets in place, without moving a
        // PHV. All scratch is taken out of `self` (borrowck: the pipes are
        // borrowed mutably below) and put back at the end, so a warm
        // switch allocates nothing here.
        let n_pipes = self.pipes.len();
        let mut phvs = mem::take(&mut self.phv_pool);
        let mut origin = mem::take(&mut self.origin);
        let mut by_pipe = mem::take(&mut self.by_pipe);
        origin.clear();
        by_pipe.iter_mut().for_each(Vec::clear);
        by_pipe.resize_with(n_pipes, Vec::new);

        let mut live = 0usize; // phvs[..live] hold this batch's packets
        for (i, pkt) in inputs.iter().enumerate() {
            let pipe_idx = self.chip.pipe_of(pkt.port);
            debug_assert!(pipe_idx < n_pipes, "port {} beyond chip", pkt.port);
            if live == phvs.len() {
                phvs.push(Phv::default());
            }
            let parser = self.pipes[pipe_idx].parser();
            match parse_packet_into(parser, &pkt.bytes, pkt.port, pkt.seq, &mut phvs[live]) {
                Ok(()) => {
                    by_pipe[pipe_idx].push(live);
                    origin.push(i);
                    live += 1;
                }
                Err(_) => {
                    self.stats.parse_errors += 1;
                    self.recorder.record(TraceEvent {
                        seq: pkt.seq,
                        port: pkt.port.0,
                        pipe: pipe_idx as u8,
                        point: TracePoint::Parse,
                        decision: 0,
                        reason: TraceReason::ParseError,
                    });
                }
            }
        }

        // One batched pass per ingress pipe, in arrival order per pipe.
        for (pipe_idx, idxs) in by_pipe.iter().enumerate() {
            if !idxs.is_empty() {
                self.pipes[pipe_idx].execute_batch_indexed(&mut phvs, idxs);
            }
        }

        // Finish each packet in arrival order: verdicts, recirculation,
        // egress resolution, arena deparse (splicing body spans out of the
        // input frame — or the recirculation buffer if the packet took
        // another pass).
        for (k, &i) in origin.iter().enumerate() {
            let pkt = &inputs[i];
            let pipe_idx = self.chip.pipe_of(pkt.port);
            let phv = &mut phvs[k];
            if let Some((port, final_pipe, latency, recirced)) =
                self.finish_passes(phv, &pkt.bytes, pipe_idx, pkt.seq)
            {
                let frame: &[u8] = if recirced { &self.recirc_frame } else { &pkt.bytes };
                out.push_deparsed(&self.pipes[final_pipe], phv, frame, (port, pkt.seq, latency));
            }
        }

        self.phv_pool = phvs;
        self.origin = origin;
        self.by_pipe = by_pipe;
    }

    /// Clears per-run statistics (register contents are left alone).
    pub fn reset_stats(&mut self) {
        self.stats = SwitchStats::default();
    }
}

impl core::fmt::Debug for SwitchModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SwitchModel")
            .field("pipes", &self.pipes.len())
            .field("l2_entries", &self.l2.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;
    use crate::phv::RecircTarget;
    use crate::pipeline::Pipeline;
    use pp_packet::builder::UdpPacketBuilder;

    fn l2_switch() -> SwitchModel {
        let chip = ChipProfile::default();
        let pipes = (0..chip.pipes).map(|_| Pipeline::builder(chip).build().unwrap()).collect();
        SwitchModel::new(chip, pipes)
    }

    fn pkt_to(dst: MacAddr) -> Vec<u8> {
        UdpPacketBuilder::new().dst_mac(dst).total_size(300, 4).build().into_bytes()
    }

    #[test]
    fn l2_forwarding_delivers_to_learned_port() {
        let mut sw = l2_switch();
        let server = MacAddr::from_index(42);
        sw.l2_add(server, PortId(3));
        let bytes = pkt_to(server);
        let out = sw.process(&bytes, PortId(0), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, PortId(3));
        assert_eq!(out[0].bytes, bytes);
        assert_eq!(out[0].seq, 1);
        assert_eq!(out[0].latency_ns, 400);
        assert_eq!(sw.stats().emitted, 1);
        assert_eq!(sw.l2_lookup(server), Some(PortId(3)));
    }

    #[test]
    fn unknown_destination_dropped() {
        let mut sw = l2_switch();
        let out = sw.process(&pkt_to(MacAddr::from_index(9)), PortId(0), 0);
        assert!(out.is_empty());
        assert_eq!(sw.stats().dropped_no_route, 1);
    }

    #[test]
    fn parse_error_counted() {
        let mut sw = l2_switch();
        let out = sw.process(&[0u8; 5], PortId(0), 0);
        assert!(out.is_empty());
        assert_eq!(sw.stats().parse_errors, 1);
    }

    #[test]
    fn program_drop_verdict() {
        let chip = ChipProfile::default();
        let mut pipes: Vec<Pipeline> = Vec::new();
        for _ in 0..chip.pipes {
            let mut b = Pipeline::builder(chip);
            b.place(0, Mat::builder("drop_all").action(|ctx| ctx.phv.verdict.drop = true).build());
            pipes.push(b.build().unwrap());
        }
        let mut sw = SwitchModel::new(chip, pipes);
        let out = sw.process(&pkt_to(MacAddr::from_index(1)), PortId(0), 0);
        assert!(out.is_empty());
        assert_eq!(sw.stats().dropped_by_program, 1);
    }

    #[test]
    fn program_egress_overrides_l2() {
        let chip = ChipProfile::default();
        let mut pipes: Vec<Pipeline> = Vec::new();
        for _ in 0..chip.pipes {
            let mut b = Pipeline::builder(chip);
            b.place(
                0,
                Mat::builder("steer")
                    .action(|ctx| ctx.phv.verdict.egress = Some(PortId(12)))
                    .build(),
            );
            pipes.push(b.build().unwrap());
        }
        let mut sw = SwitchModel::new(chip, pipes);
        sw.l2_add(MacAddr::from_index(2), PortId(5));
        let out = sw.process(&pkt_to(MacAddr::from_index(2)), PortId(0), 0);
        assert_eq!(out[0].port, PortId(12));
    }

    #[test]
    fn recirculation_crosses_pipes_and_charges_latency() {
        let chip = ChipProfile::default();
        let mut pipes: Vec<Pipeline> = Vec::new();
        for pipe_idx in 0..chip.pipes {
            let mut b = Pipeline::builder(chip);
            if pipe_idx == 0 {
                // First pass in pipe 0 sends the packet to pipe 1 once.
                b.place(
                    0,
                    Mat::builder("to_pipe1")
                        .gateway(|p| p.recirc_count == 0 && p.ingress_port == PortId(0))
                        .action(|ctx| {
                            ctx.phv.verdict.recirculate = Some(RecircTarget { pipe: 1, channel: 0 })
                        })
                        .build(),
                );
            }
            if pipe_idx == 1 {
                b.place(
                    0,
                    Mat::builder("mark")
                        .action(|ctx| ctx.phv.verdict.egress = Some(PortId(30)))
                        .build(),
                );
            }
            pipes.push(b.build().unwrap());
        }
        let mut sw = SwitchModel::new(chip, pipes);
        let bytes = pkt_to(MacAddr::from_index(3));
        let out = sw.process(&bytes, PortId(0), 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, PortId(30));
        // Two passes + one recirculation penalty.
        assert_eq!(out[0].latency_ns, 400 + 400 + 60);
        assert_eq!(sw.stats().recirculations, 1);
        // Payload is preserved across the recirculation.
        assert_eq!(out[0].bytes, bytes);
    }

    #[test]
    fn recirculation_limit_drops() {
        let chip = ChipProfile::default();
        let mut pipes: Vec<Pipeline> = Vec::new();
        for _ in 0..chip.pipes {
            let mut b = Pipeline::builder(chip);
            b.place(
                0,
                Mat::builder("loop")
                    .action(|ctx| {
                        ctx.phv.verdict.recirculate = Some(RecircTarget { pipe: 0, channel: 0 })
                    })
                    .build(),
            );
            pipes.push(b.build().unwrap());
        }
        let mut sw = SwitchModel::new(chip, pipes);
        let out = sw.process(&pkt_to(MacAddr::from_index(1)), PortId(0), 0);
        assert!(out.is_empty());
        assert_eq!(sw.stats().dropped_recirc_limit, 1);
        assert_eq!(sw.stats().recirculations as u32, ChipProfile::default().max_recirculations);
    }

    #[test]
    fn recirc_port_ids_are_beyond_front_panel() {
        let sw = l2_switch();
        assert_eq!(sw.recirc_port(0, 0), PortId(64));
        assert_eq!(sw.recirc_port(0, 1), PortId(65));
        assert_eq!(sw.recirc_port(3, 1), PortId(71));
    }

    #[test]
    fn reset_stats() {
        let mut sw = l2_switch();
        sw.process(&[0u8; 3], PortId(0), 0);
        sw.reset_stats();
        assert_eq!(sw.stats(), SwitchStats::default());
    }

    #[test]
    #[should_panic(expected = "one pipeline per pipe")]
    fn wrong_pipe_count_panics() {
        let chip = ChipProfile::default();
        SwitchModel::new(chip, vec![]);
    }

    /// A switch whose program is order-sensitive: a per-pipe stateful
    /// counter is stamped into each packet's source MAC, so any deviation
    /// from sequential packet order shows up in the output bytes.
    fn stamping_switch() -> SwitchModel {
        use crate::register::{cell, RegisterSpec};
        let chip = ChipProfile::default();
        let mut pipes: Vec<Pipeline> = Vec::new();
        for _ in 0..chip.pipes {
            let mut b = Pipeline::builder(chip);
            let arr = b.register(RegisterSpec {
                name: "stamp".into(),
                stage: 0,
                cell_bytes: 4,
                cells: 1,
            });
            b.place(
                0,
                Mat::builder("stamp")
                    .stateful(arr, |_| Some(0))
                    .action(|ctx| {
                        let c = ctx.cell.as_deref_mut().unwrap();
                        let v = cell::read_u32(c) + 1;
                        cell::write_u32(c, v);
                        ctx.phv.eth.src.0[5] = v as u8;
                    })
                    .build(),
            );
            pipes.push(b.build().unwrap());
        }
        SwitchModel::new(chip, pipes)
    }

    #[test]
    fn batch_matches_sequential_processing() {
        let dst = MacAddr::from_index(8);
        let inputs: Vec<BatchPacket> = (0..37)
            .map(|i| BatchPacket {
                bytes: UdpPacketBuilder::new()
                    .dst_mac(dst)
                    .total_size(100 + (i % 7) * 50, i as u64)
                    .build()
                    .into_bytes(),
                // Spread the batch across two pipes.
                port: PortId(if i % 3 == 0 { 16 } else { 0 }),
                seq: i as u64,
            })
            .collect();

        let mut seq_switch = stamping_switch();
        seq_switch.l2_add(dst, PortId(40));
        let mut expected = Vec::new();
        for pkt in &inputs {
            expected.extend(seq_switch.process(&pkt.bytes, pkt.port, pkt.seq));
        }

        let mut batch_switch = stamping_switch();
        batch_switch.l2_add(dst, PortId(40));
        let mut out = BatchOutput::new();
        batch_switch.process_batch(&inputs, &mut out);

        assert_eq!(out.to_switch_outputs(), expected);
        assert_eq!(batch_switch.stats(), seq_switch.stats());
        assert_eq!(out.wire_bytes(), expected.iter().map(|o| o.bytes.len()).sum::<usize>());
    }

    #[test]
    fn batch_counts_parse_errors_and_reuses_buffers() {
        let dst = MacAddr::from_index(8);
        let mut sw = stamping_switch();
        sw.l2_add(dst, PortId(40));
        let good = UdpPacketBuilder::new().dst_mac(dst).total_size(128, 1).build().into_bytes();
        let inputs = vec![
            BatchPacket { bytes: vec![0u8; 4], port: PortId(0), seq: 0 },
            BatchPacket { bytes: good.clone(), port: PortId(0), seq: 1 },
        ];
        let mut out = BatchOutput::new();
        sw.process_batch(&inputs, &mut out);
        assert_eq!(sw.stats().parse_errors, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out.get(0).seq, 1);
        // A second call clears the previous contents.
        sw.process_batch(&inputs[1..], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().count(), 1);
        assert!(!out.is_empty());
    }

    #[test]
    fn batch_output_append_rebases_slices() {
        let dst = MacAddr::from_index(8);
        let mut sw = stamping_switch();
        sw.l2_add(dst, PortId(40));
        let pkt = |seq| BatchPacket {
            bytes: UdpPacketBuilder::new().dst_mac(dst).total_size(90, seq).build().into_bytes(),
            port: PortId(0),
            seq,
        };
        let (mut a, mut b) = (BatchOutput::new(), BatchOutput::new());
        sw.process_batch(&[pkt(0)], &mut a);
        sw.process_batch(&[pkt(1)], &mut b);
        let b0 = b.get(0).bytes.to_vec();
        a.append(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(1).seq, 1);
        assert_eq!(a.get(1).bytes, &b0[..]);
    }
}
