//! The adversity scenario matrix (acceptance oracle).
//!
//! Every scenario — loss, bounded reordering, duplication, truncation,
//! scripted blackouts, their combination, and payload corruption — is
//! applied to UDP-only and mixed TCP+UDP enterprise waves and driven
//! through all three execution paths: the scalar two-phase reference and
//! the sharded engine at 2 and 4 workers, all suffering the *identical*
//! seeded misfortune (every fault decision is a pure function of
//! `(seed, leg, seq)`).
//!
//! For each cell of the matrix the conformance oracle must hold — the
//! counters balance against the occupied slots (no leaks, no
//! double-frees) and, for non-corrupting scenarios, every delivered
//! packet passes checksum verification — and the three paths must agree
//! exactly: identical counter totals, identical switch statistics,
//! identical fault tallies and identical delivered byte sets.

use payloadpark::{oracle, CounterSnapshot};
use pp_fastpath::{adverse_return_wave, EngineConfig, SlicedTestbed};
use pp_netsim::adversity::{AdversityProfile, FaultTally, LegProfile, SeqWindow};
use pp_rmt::switch::{BatchPacket, SwitchOutput, SwitchStats};

const SCENARIO_SEED: u64 = 77;
const WAVE_SEED: u64 = 9;
/// Two waves of 200: the second wave's splits wrap the 4 × 48-slot table
/// and age out whatever the first wave's adversity orphaned.
const WAVE_PACKETS: usize = 200;
const TB: SlicedTestbed = SlicedTestbed { slices: 4, slots: 48 };

/// One matrix scenario: a name, the profile, and whether delivered
/// packets must still verify their checksums (false only for corruption,
/// which mangles payload bytes the baseline would deliver mangled too).
fn scenarios() -> Vec<(&'static str, AdversityProfile, bool)> {
    let base = AdversityProfile { seed: SCENARIO_SEED, ..Default::default() };
    vec![
        ("loss", AdversityProfile { from_nf: LegProfile::loss(0.25), ..base.clone() }, true),
        (
            "reorder",
            AdversityProfile {
                from_nf: LegProfile { reorder: 0.5, max_displacement: 40, ..Default::default() },
                ..base.clone()
            },
            true,
        ),
        (
            "dup",
            AdversityProfile {
                from_nf: LegProfile { duplicate: 0.3, ..Default::default() },
                ..base.clone()
            },
            true,
        ),
        (
            "truncate",
            AdversityProfile {
                from_nf: LegProfile { truncate: 0.3, ..Default::default() },
                ..base.clone()
            },
            true,
        ),
        (
            "blackout",
            AdversityProfile {
                from_nf: LegProfile {
                    blackouts: vec![SeqWindow { from: 60, to: 140 }],
                    ..Default::default()
                },
                ..base.clone()
            },
            true,
        ),
        (
            "combined",
            AdversityProfile {
                to_nf: LegProfile::loss(0.05),
                from_nf: LegProfile {
                    drop: 0.15,
                    duplicate: 0.15,
                    truncate: 0.15,
                    reorder: 0.3,
                    max_displacement: 24,
                    ..Default::default()
                },
                ..base.clone()
            },
            true,
        ),
        (
            "corrupt",
            AdversityProfile { from_nf: LegProfile { corrupt: 0.4, ..Default::default() }, ..base },
            false,
        ),
    ]
}

/// Canonical delivered *set*: reordering legitimately permutes arrival
/// order, so paths are compared on sorted (seq, bytes) pairs.
fn canonical(outs: Vec<SwitchOutput>) -> Vec<(u64, Vec<u8>)> {
    let mut set: Vec<(u64, Vec<u8>)> = outs.into_iter().map(|o| (o.seq, o.bytes)).collect();
    set.sort();
    set
}

struct PathResult {
    delivered: Vec<(u64, Vec<u8>)>,
    counters: CounterSnapshot,
    stats: SwitchStats,
    occupancy: usize,
    tally: FaultTally,
}

fn scalar_run(waves: &[&[BatchPacket]], adv: &AdversityProfile) -> PathResult {
    let (mut sw, control) = TB.build_scalar();
    let mut tally = FaultTally::default();
    let mut delivered = Vec::new();
    for wave in waves {
        delivered.extend(TB.scalar_roundtrip_two_phase_adverse(&mut sw, wave, adv, &mut tally));
    }
    PathResult {
        delivered: canonical(delivered),
        counters: control.counters(&sw),
        stats: sw.stats(),
        occupancy: control.occupancy(&sw),
        tally,
    }
}

fn engine_run(waves: &[&[BatchPacket]], adv: &AdversityProfile, workers: usize) -> PathResult {
    let mut engine = TB.build_engine(EngineConfig { workers, batch: 32 }).unwrap();
    let mut tally = FaultTally::default();
    let mut delivered = Vec::new();
    for wave in waves {
        let to_servers = engine.process(wave.to_vec());
        let outs = to_servers.to_seq_sorted().into_iter().map(BatchPacket::from).collect();
        let back = adverse_return_wave(adv, outs, TB.sink_mac(), &mut tally);
        delivered.extend(engine.process(back).to_seq_sorted());
    }
    PathResult {
        delivered: canonical(delivered),
        counters: engine.counters(),
        stats: engine.switch_stats(),
        occupancy: engine.occupancy(),
        tally,
    }
}

fn run_matrix(mixed: bool) {
    let inputs = if mixed {
        TB.counted_mixed_wave(WAVE_SEED, 2 * WAVE_PACKETS)
    } else {
        TB.counted_enterprise_wave(WAVE_SEED, 2 * WAVE_PACKETS)
    };
    let waves = [&inputs[..WAVE_PACKETS], &inputs[WAVE_PACKETS..]];

    for (name, adv, check_checksums) in scenarios() {
        let scalar = scalar_run(&waves, &adv);
        assert!(scalar.counters.splits > 0, "{name}: workload must park");

        // The conformance oracle on the scalar reference.
        let mut report = oracle::check_counters(&scalar.counters, scalar.occupancy);
        if check_checksums {
            report
                .merge(oracle::check_delivered(scalar.delivered.iter().map(|(_, b)| b.as_slice())));
        }
        assert!(report.ok(), "{name} (mixed={mixed}): {:?}", report.violations());

        // Scenario-specific signals: the adversity must actually bite.
        match name {
            "loss" | "blackout" | "combined" => {
                assert!(scalar.tally.lost() > 0, "{name}: {:?}", scalar.tally);
                assert!(
                    scalar.counters.evictions > 0,
                    "{name}: orphaned slots must be aged out: {:?}",
                    scalar.counters
                );
            }
            "dup" => {
                assert!(scalar.tally.duplicated > 0, "{name}: {:?}", scalar.tally);
                assert!(scalar.counters.dup_merge > 0, "{name}: {:?}", scalar.counters);
            }
            "truncate" => {
                assert!(scalar.tally.truncated > 0, "{name}: {:?}", scalar.tally);
                assert!(scalar.stats.parse_errors > 0, "{name}: {:?}", scalar.stats);
            }
            "reorder" => {
                assert!(scalar.tally.displaced > 0, "{name}: {:?}", scalar.tally);
                assert_eq!(scalar.delivered.len(), inputs.len(), "reorder loses nothing");
            }
            "corrupt" => {
                assert!(scalar.tally.corrupted > 0, "{name}: {:?}", scalar.tally);
            }
            _ => unreachable!(),
        }

        // Scalar vs 2- and 4-shard engine under the identical scenario.
        for workers in [2usize, 4] {
            let engine = engine_run(&waves, &adv, workers);
            let ctx = format!("{name} (mixed={mixed}, workers={workers})");
            assert_eq!(engine.tally, scalar.tally, "{ctx}: fault tallies diverged");
            assert_eq!(engine.counters, scalar.counters, "{ctx}: counters diverged");
            assert_eq!(engine.stats, scalar.stats, "{ctx}: switch stats diverged");
            assert_eq!(engine.occupancy, scalar.occupancy, "{ctx}: occupancy diverged");
            assert_eq!(
                engine.delivered.len(),
                scalar.delivered.len(),
                "{ctx}: delivered count diverged"
            );
            for (e, s) in engine.delivered.iter().zip(&scalar.delivered) {
                assert_eq!(e, s, "{ctx}: delivered byte set diverged");
            }
            oracle::check_counters(&engine.counters, engine.occupancy).assert_ok();
        }
    }
}

#[test]
fn matrix_holds_on_udp_only_waves() {
    run_matrix(false);
}

#[test]
fn matrix_holds_on_mixed_tcp_udp_waves() {
    run_matrix(true);
}
