//! The sharded, batched multi-worker engine.
//!
//! An [`Engine`] partitions a PayloadPark deployment with
//! [`payloadpark::ShardPlan`] (the paper's §6.2.4 port→slice mapping) and
//! owns one shard per slice: that slice's [`SwitchModel`] — register
//! file included — and its control-plane view. Every driving call hands
//! the engine a complete wave, so shards run to completion: the wave is
//! routed into per-shard queues, shard 0 runs on the calling thread and
//! shards `1..` on scoped threads, and the call returns once all of them
//! are done. A shard cuts its queue into `batch`-sized slices and runs
//! each through the batched dataplane ([`SwitchModel::process_batch`]),
//! so MAT dispatch is amortized and every batch deparses into one arena.
//!
//! Determinism is preserved: a shard processes its packets in arrival
//! order, a slice's register cells are only ever touched by its own
//! shard, and batch execution performs register accesses in the same
//! per-array order as scalar execution. For any traffic mix the engine's
//! aggregate counters and merged egress bytes are therefore identical to
//! the single-threaded pipeline — the oracle in
//! `tests/functional_equivalence.rs` and this module's tests enforce it
//! byte for byte.

use crate::adapter::reflect_outputs;
use crate::adversity::adverse_return_wave;
use payloadpark::program::build_switch;
use payloadpark::{BuildError, CounterSnapshot, ParkConfig, PipeControl, ShardPlan};
use pp_netsim::adversity::{AdversityProfile, FaultTally};
use pp_packet::MacAddr;
use pp_rmt::switch::{BatchOutput, BatchPacket, OutputRef, SwitchStats};
use pp_rmt::{PortId, SwitchModel, SwitchOutput};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Shards, one thread each while a wave runs; the deployment needs at
    /// least this many slices.
    pub workers: usize,
    /// Packets per batch (the unit of amortization). It is also the span
    /// of adversity reordering: a round trip merges each batch before the
    /// next one splits.
    pub batch: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        // 128-packet batches keep a batch's PHVs and payloads inside L2
        // while still amortizing dispatch; measured optimal on the
        // enterprise mix (64-128, falling off past 512).
        EngineConfig { workers: 4, batch: 128 }
    }
}

/// One slice of the deployment and everything that runs it.
struct Shard {
    switch: SwitchModel,
    control: PipeControl,
    tally: FaultTally,
    /// Split-side arena of a round trip, reused across batches and waves:
    /// only the merge-side arenas leave the shard.
    split_side: BatchOutput,
    /// The current wave's packets for this shard, in arrival order.
    queue: Vec<BatchPacket>,
}

impl Shard {
    /// Runs the queued wave batch by batch, one output arena per batch.
    /// With a `sink`, each batch makes the whole Split → NF → Merge round
    /// trip ([`Engine::process_roundtrip_adverse`]) before the next one
    /// splits.
    fn run(
        &mut self,
        batch: usize,
        sink: Option<MacAddr>,
        adversity: Option<&AdversityProfile>,
    ) -> Vec<BatchOutput> {
        let mut outs = Vec::with_capacity(self.queue.len().div_ceil(batch));
        for pkts in self.queue.chunks(batch) {
            let mut out = BatchOutput::new();
            match sink {
                None => self.switch.process_batch(pkts, &mut out),
                Some(sink) => {
                    self.switch.process_batch(pkts, &mut self.split_side);
                    let back = match adversity {
                        None => reflect_outputs(self.split_side.iter(), sink),
                        Some(adv) => {
                            // One copy off the arena views, unavoidable:
                            // the injector mutates bytes.
                            let wave = self
                                .split_side
                                .iter()
                                .map(|o| BatchPacket {
                                    bytes: o.bytes.to_vec(),
                                    port: o.port,
                                    seq: o.seq,
                                })
                                .collect();
                            adverse_return_wave(adv, wave, sink, &mut self.tally)
                        }
                    };
                    self.switch.process_batch(&back, &mut out);
                }
            }
            outs.push(out);
        }
        self.queue.clear();
        outs
    }
}

/// Runs `f` on every shard at once and returns the results in shard
/// order: shards `1..` on scoped threads, shard 0 on the calling thread,
/// so a one-shard engine spawns nothing. A panic on any shard resumes on
/// the caller with its original payload — a failed shard never turns into
/// a silently truncated result.
fn run_scoped<S: Send, T: Send>(shards: &mut [S], f: impl Fn(&mut S) -> T + Sync) -> Vec<T> {
    let (first, rest) = shards.split_first_mut().expect("a shard plan has at least one shard");
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest.iter_mut().map(|s| scope.spawn(move || f(s))).collect();
        let mut results = Vec::with_capacity(handles.len() + 1);
        results.push(f(first));
        for handle in handles {
            match handle.join() {
                Ok(r) => results.push(r),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results
    })
}

/// The multi-worker Split/Merge execution engine.
pub struct Engine {
    plan: ShardPlan,
    batch: usize,
    shards: Vec<Shard>,
}

impl Engine {
    /// Builds an engine for `park`, sharded `cfg.workers` ways.
    pub fn new(park: &ParkConfig, cfg: EngineConfig) -> Result<Engine, BuildError> {
        if cfg.batch == 0 {
            return Err(BuildError::Config("batch must be positive".into()));
        }
        let plan = ShardPlan::new(park, cfg.workers).map_err(BuildError::Config)?;
        let shards = plan
            .configs()
            .iter()
            .map(|shard_cfg| {
                let (switch, handles) = build_switch(shard_cfg)?;
                Ok(Shard {
                    switch,
                    control: PipeControl::new(handles[0].clone()),
                    tally: FaultTally::default(),
                    split_side: BatchOutput::new(),
                    queue: Vec::new(),
                })
            })
            .collect::<Result<_, BuildError>>()?;
        Ok(Engine { plan, batch: cfg.batch, shards })
    }

    /// The shard plan in use.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards (worker threads while a wave runs).
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Adds an L2 forwarding entry to every shard (all shards share the
    /// switch's forwarding view, as all slices of one pipe do).
    pub fn l2_add(&mut self, mac: MacAddr, port: PortId) {
        for shard in &mut self.shards {
            shard.switch.l2_add(mac, port);
        }
    }

    /// Runs one wave of traffic through the engine.
    ///
    /// Packets are routed to shards by ingress port (packets on ports
    /// outside the plan take the pure L2 path and go to shard 0), cut into
    /// `batch`-sized batches, and processed concurrently. Within a shard,
    /// arrival order is preserved end to end. A panic on any shard
    /// propagates to the caller.
    pub fn process(&mut self, inputs: Vec<BatchPacket>) -> EngineOutput {
        self.run(inputs, None, None)
    }

    /// Runs one wave through the full Split → NF → Merge round trip: each
    /// shard bounces its split-side outputs off its slice's MAC-swap NF
    /// server (readdressed to `sink`) and merges the returns, so the
    /// entire per-packet path executes shard-locally. Returns the
    /// merge-side (sink-bound) outputs.
    pub fn process_roundtrip(&mut self, inputs: Vec<BatchPacket>, sink: MacAddr) -> EngineOutput {
        self.run(inputs, Some(sink), None)
    }

    /// [`Engine::process_roundtrip`] under an adversity scenario: each
    /// shard's own injector mangles the switch → NF and NF → switch legs
    /// of its shard. Decisions are keyed on `(seed, leg, seq)`, so the
    /// scenario is replayable from the profile's seed, and which packets
    /// are lost, duplicated, truncated or corrupted is independent of the
    /// worker count or batch size. Reorder displacement is additionally
    /// clamped to the batch span (the fused round trip merges each batch
    /// before the next one splits) — drive the engine in two phases with
    /// [`adverse_return_wave`] applied globally, as the equivalence suite
    /// does, when cross-batch reordering must match the scalar reference.
    /// [`Engine::fault_tally`] reports what was injected.
    pub fn process_roundtrip_adverse(
        &mut self,
        inputs: Vec<BatchPacket>,
        sink: MacAddr,
        adversity: &AdversityProfile,
    ) -> EngineOutput {
        let adversity = (!adversity.is_disabled()).then_some(adversity);
        self.run(inputs, Some(sink), adversity)
    }

    fn run(
        &mut self,
        inputs: Vec<BatchPacket>,
        sink: Option<MacAddr>,
        adversity: Option<&AdversityProfile>,
    ) -> EngineOutput {
        for pkt in inputs {
            let w = self.plan.shard_of_port(pkt.port.0).unwrap_or(0);
            self.shards[w].queue.push(pkt);
        }
        let batch = self.batch;
        EngineOutput { per_worker: run_scoped(&mut self.shards, |s| s.run(batch, sink, adversity)) }
    }

    /// Aggregated PayloadPark counters across all shards.
    pub fn counters(&self) -> CounterSnapshot {
        let mut total = CounterSnapshot::default();
        for s in &self.shards {
            total.add(&s.control.counters(&s.switch));
        }
        total
    }

    /// Aggregated switch statistics across all shards.
    pub fn switch_stats(&self) -> SwitchStats {
        let mut total = SwitchStats::default();
        for s in &self.shards {
            total.add(&s.switch.stats());
        }
        total
    }

    /// Occupied lookup-table slots across all shards.
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.control.occupancy(&s.switch)).sum()
    }

    /// Aggregated fault tally of the per-shard adversity injectors.
    pub fn fault_tally(&self) -> FaultTally {
        let mut total = FaultTally::default();
        for s in &self.shards {
            total.add(&s.tally);
        }
        total
    }

    /// One telemetry registry for the whole engine: each shard's state
    /// becomes a shard-labelled registry, merged with an unlabelled
    /// aggregate view — so the exposition carries both per-shard series
    /// and deployment totals.
    pub fn telemetry_registry(&self) -> pp_metrics::MetricsRegistry {
        let mut total = pp_metrics::MetricsRegistry::new();
        for (w, s) in self.shards.iter().enumerate() {
            let shard = w.to_string();
            total.merge_from(&crate::telemetry::dataplane_registry(
                &s.control.counters(&s.switch),
                &s.switch.stats(),
                s.control.occupancy(&s.switch),
                &s.tally,
                &[("shard", shard.as_str())],
            ));
        }
        total.merge_from(&crate::telemetry::dataplane_registry(
            &self.counters(),
            &self.switch_stats(),
            self.occupancy(),
            &self.fault_tally(),
            &[],
        ));
        total
    }
}

/// The egress side of one [`Engine::process`] wave: each worker's batch
/// arenas, kept as produced (no merge copies on the hot path).
#[derive(Debug, Default)]
pub struct EngineOutput {
    per_worker: Vec<Vec<BatchOutput>>,
}

impl EngineOutput {
    /// Total packets egressed.
    pub fn packets(&self) -> usize {
        self.per_worker.iter().flatten().map(BatchOutput::len).sum()
    }

    /// Total wire bytes egressed.
    pub fn wire_bytes(&self) -> usize {
        self.per_worker.iter().flatten().map(BatchOutput::wire_bytes).sum()
    }

    /// Packets one worker egressed.
    pub fn worker_packets(&self, w: usize) -> usize {
        self.per_worker[w].iter().map(BatchOutput::len).sum()
    }

    /// Iterates one worker's outputs in that shard's arrival order.
    pub fn worker_iter(&self, w: usize) -> impl Iterator<Item = OutputRef<'_>> {
        self.per_worker[w].iter().flat_map(BatchOutput::iter)
    }

    /// Number of workers that contributed.
    pub fn workers(&self) -> usize {
        self.per_worker.len()
    }

    /// Iterates all outputs, worker by worker.
    pub fn iter(&self) -> impl Iterator<Item = OutputRef<'_>> {
        self.per_worker.iter().flatten().flat_map(BatchOutput::iter)
    }

    /// Borrowed views of all outputs, globally ordered by sequence number
    /// — the zero-copy way to walk a wave in deterministic order (the
    /// bytes stay in the workers' batch arenas).
    pub fn sorted_refs(&self) -> Vec<OutputRef<'_>> {
        let mut all: Vec<OutputRef<'_>> = self.iter().collect();
        all.sort_by_key(|o| o.seq);
        all
    }

    /// Copies all outputs out, globally ordered by sequence number — the
    /// deterministic order the equivalence oracle compares against the
    /// scalar pipeline's output. Clones every packet; hot paths should use
    /// [`EngineOutput::sorted_refs`].
    pub fn to_seq_sorted(&self) -> Vec<SwitchOutput> {
        self.sorted_refs().into_iter().map(|o| o.to_owned()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::SlicedTestbed;
    use pp_packet::builder::UdpPacketBuilder;

    const TB: SlicedTestbed = SlicedTestbed { slices: 4, slots: 512 };

    /// Round-trips `inputs` (split, MAC-swap at the server, merge) through
    /// the scalar switch, returning sink-side outputs and counters.
    fn scalar_roundtrip(inputs: &[BatchPacket]) -> (Vec<SwitchOutput>, CounterSnapshot) {
        let (mut sw, control) = TB.build_scalar();
        let merged = TB.scalar_roundtrip(&mut sw, inputs);
        let counters = control.counters(&sw);
        (merged, counters)
    }

    fn engine_roundtrip(
        inputs: Vec<BatchPacket>,
        workers: usize,
        fused: bool,
    ) -> (Vec<SwitchOutput>, CounterSnapshot) {
        let mut engine = TB.build_engine(EngineConfig { workers, batch: 16 }).unwrap();
        let merged = if fused {
            engine.process_roundtrip(inputs, TB.sink_mac())
        } else {
            let to_server = engine.process(inputs);
            let back = reflect_outputs(to_server.iter(), TB.sink_mac());
            engine.process(back)
        };
        (merged.to_seq_sorted(), engine.counters())
    }

    #[test]
    fn sharded_engine_matches_scalar_switch() {
        // 75 packets per slice, well below the 512 slots: no wrap, so the
        // interleaved scalar reference and both engine drive modes must
        // agree exactly.
        let inputs = TB.counted_enterprise_wave(42, 300);
        let (scalar_out, scalar_counters) = scalar_roundtrip(&inputs);
        for workers in [1, 2, 4] {
            for fused in [false, true] {
                let (engine_out, engine_counters) =
                    engine_roundtrip(inputs.clone(), workers, fused);
                assert_eq!(engine_out, scalar_out, "{workers} workers, fused={fused}");
                assert_eq!(engine_counters, scalar_counters, "{workers} workers, fused={fused}");
            }
        }
        assert!(scalar_counters.splits > 0, "workload must exercise parking");
    }

    #[test]
    fn engine_survives_many_waves() {
        let mut engine = TB.build_engine(EngineConfig { workers: 2, batch: 32 }).unwrap();
        let mut emitted = 0;
        for wave in 0..10 {
            let out = engine.process_roundtrip(TB.counted_enterprise_wave(wave, 64), TB.sink_mac());
            emitted += out.packets();
            assert_eq!(out.workers(), 2, "wave {wave}");
        }
        assert_eq!(emitted, 640);
        assert_eq!(engine.switch_stats().emitted, 2 * 640, "split pass + merge pass");
    }

    #[test]
    fn telemetry_registry_aggregates_shards() {
        let mut engine = TB.build_engine(EngineConfig { workers: 2, batch: 16 }).unwrap();
        let _ = engine.process_roundtrip(TB.counted_enterprise_wave(3, 120), TB.sink_mac());
        let counters = engine.counters();
        assert!(counters.splits > 0);
        let reg = engine.telemetry_registry();
        // The unlabelled aggregate equals the summed per-shard series.
        assert_eq!(reg.get("pp_splits_total", &[]).unwrap().value(), counters.splits as f64);
        let s0 = reg.get("pp_splits_total", &[("shard", "0")]).unwrap().value();
        let s1 = reg.get("pp_splits_total", &[("shard", "1")]).unwrap().value();
        assert_eq!(s0 + s1, counters.splits as f64);
        assert!(s0 > 0.0 && s1 > 0.0, "both shards park: {s0} + {s1}");
    }

    #[test]
    fn unknown_port_takes_the_l2_path_on_shard_zero() {
        let mut engine =
            TB.build_engine(EngineConfig { workers: 2, ..Default::default() }).unwrap();
        let pkt = BatchPacket {
            bytes: UdpPacketBuilder::new()
                .dst_mac(TB.sink_mac())
                .total_size(400, 9)
                .build()
                .into_bytes(),
            port: PortId(12), // not in any slice
            seq: 0,
        };
        let out = engine.process(vec![pkt.clone()]);
        assert_eq!(out.packets(), 1);
        assert_eq!(out.worker_packets(0), 1, "routed to shard 0");
        assert_eq!(out.worker_iter(0).count(), 1);
        assert_eq!(out.iter().next().unwrap().bytes, &pkt.bytes[..], "L2 is byte-transparent");
        assert_eq!(engine.counters().splits, 0);
        assert_eq!(engine.switch_stats().emitted, 1);
        assert_eq!(engine.occupancy(), 0);
        assert_eq!(engine.workers(), 2);
        assert_eq!(engine.plan().workers(), 2);
    }

    #[test]
    fn engine_moved_across_threads_keeps_its_wakeups() {
        // An engine built on one thread can be driven from another: it
        // holds no handle to the thread that constructed it.
        let mut engine = TB.build_engine(EngineConfig { workers: 2, batch: 16 }).unwrap();
        let (merged, counters) = std::thread::spawn(move || {
            let out = engine.process_roundtrip(TB.counted_enterprise_wave(5, 120), TB.sink_mac());
            (out.packets(), engine.counters())
        })
        .join()
        .unwrap();
        assert_eq!(merged, 120);
        assert!(counters.splits > 0);
    }

    #[test]
    fn adverse_roundtrip_replays_byte_identically_from_its_seed() {
        use pp_netsim::adversity::LegProfile;
        let adv = AdversityProfile {
            seed: 42,
            to_nf: LegProfile::loss(0.05),
            from_nf: LegProfile {
                drop: 0.1,
                duplicate: 0.1,
                truncate: 0.1,
                reorder: 0.3,
                max_displacement: 8,
                ..Default::default()
            },
        };
        let run = |adv: &AdversityProfile| {
            let mut engine = TB.build_engine(EngineConfig { workers: 2, batch: 16 }).unwrap();
            let out = engine.process_roundtrip_adverse(
                TB.counted_enterprise_wave(7, 240),
                TB.sink_mac(),
                adv,
            );
            (out.to_seq_sorted(), engine.counters(), engine.occupancy(), engine.fault_tally())
        };
        let (out_a, counters_a, occ_a, tally_a) = run(&adv);
        let (out_b, counters_b, occ_b, tally_b) = run(&adv);
        assert_eq!(out_a, out_b, "same seed must replay byte-identically");
        assert_eq!(counters_a, counters_b);
        assert_eq!(tally_a, tally_b);
        assert!(tally_a.lost() > 0, "{tally_a:?}");
        // The invariants hold even under loss + dup + truncation + reorder.
        payloadpark::oracle::check_counters(&counters_a, occ_a).assert_ok();
        payloadpark::oracle::check_counters(&counters_b, occ_b).assert_ok();
        // A different seed is a different scenario.
        let (_, _, _, tally_c) = run(&AdversityProfile { seed: 43, ..adv });
        assert_ne!(tally_a, tally_c, "seed must select the scenario");
    }

    #[test]
    fn disabled_adversity_is_the_plain_roundtrip() {
        let inputs = TB.counted_enterprise_wave(9, 120);
        let mut plain = TB.build_engine(EngineConfig { workers: 2, batch: 16 }).unwrap();
        let expected = plain.process_roundtrip(inputs.clone(), TB.sink_mac()).to_seq_sorted();
        let mut adverse = TB.build_engine(EngineConfig { workers: 2, batch: 16 }).unwrap();
        let got = adverse
            .process_roundtrip_adverse(inputs, TB.sink_mac(), &AdversityProfile::disabled())
            .to_seq_sorted();
        assert_eq!(got, expected);
        assert_eq!(adverse.fault_tally(), Default::default());
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(TB.build_engine(EngineConfig { workers: 5, ..Default::default() }).is_err());
        assert!(TB.build_engine(EngineConfig { batch: 0, ..Default::default() }).is_err());
    }

    #[test]
    #[should_panic]
    fn shard_panic_reaches_the_caller() {
        // A port beyond the chip is only the trigger (the scalar switch
        // panics on it too); what is pinned is that a failed shard fails
        // the call instead of returning a truncated `EngineOutput`.
        let mut engine = TB.build_engine(EngineConfig { workers: 2, batch: 16 }).unwrap();
        let mut wave = TB.counted_enterprise_wave(4, 40);
        let mut poison = wave[0].clone();
        poison.port = PortId(u16::MAX);
        poison.seq = 40;
        wave.push(poison);
        let _ = engine.process_roundtrip(wave, TB.sink_mac());
    }

    #[test]
    #[should_panic(expected = "shard 2 failed")]
    fn spawned_shard_panic_resumes_on_the_caller() {
        let mut shards = [0, 1, 2, 3];
        let _ = run_scoped(&mut shards, |s| assert_ne!(*s, 2, "shard 2 failed"));
    }
}
