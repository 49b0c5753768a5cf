//! Steady-state allocation discipline of the batched hot path.
//!
//! The zero-copy refactor pools every per-packet buffer the switch needs
//! (PHVs, origin/by-pipe scratch, the deparse arena, recirculation
//! ping-pong frames), so a warm [`SwitchModel::process_batch`] must not
//! touch the heap at all. This test wraps the system allocator in a
//! counting shim, runs two warm-up batches to size the pools, and then
//! asserts the third batch performs exactly zero allocations.
//!
//! The cluster round trip has to hand its caller owned outputs, so its
//! floor is one allocation per delivered packet (the output's bytes) plus
//! a few per wave (the split arena and the output vector).

use pp_cluster::{Cluster, ClusterConfig};
use pp_fastpath::SlicedTestbed;
use pp_netsim::adversity::{AdversityProfile, FaultTally};
use pp_rmt::switch::BatchOutput;
use pp_rmt::SwitchModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Counts every allocation and reallocation routed through the global
/// allocator (deallocations are free to happen — returning pooled memory
/// is not the property under test).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to the system allocator plus a relaxed
// counter bump; every contract (layout validity, pointer provenance) is
// forwarded unchanged to `System`, whose caller-side obligations are
// exactly ours.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: ptr/layout/new_size are forwarded from our caller intact.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was allocated by `alloc`/`realloc` above, which
        // delegate to `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The counter is process-wide, so the tests in this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocations a warm calm cluster wave may make beyond one per delivered
/// packet: the split arena's bytes and items, and the output vector.
const CLUSTER_WAVE_ALLOCS: u64 = 3;

/// Runs `batches` identical waves through `process_batch` and returns the
/// allocation count of the last one.
fn allocs_in_last_batch(sw: &mut SwitchModel, tb: &SlicedTestbed, batches: usize) -> u64 {
    let wave = tb.counted_mixed_wave(17, 256);
    let mut out = BatchOutput::new();
    let mut last = 0;
    for _ in 0..batches {
        let before = allocs();
        sw.process_batch(&wave, &mut out);
        last = allocs() - before;
        assert!(!out.is_empty(), "the wave must produce egress packets");
    }
    last
}

#[test]
fn warm_process_batch_never_allocates() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let tb = SlicedTestbed::new(8, 2048);

    // The full PayloadPark program: split-side block extraction, register
    // stores, metadata table writes, shim insertion.
    let (mut park, _) = tb.build_scalar();
    let park_allocs = allocs_in_last_batch(&mut park, &tb, 3);
    assert_eq!(
        park_allocs, 0,
        "3rd batch through the PayloadPark program allocated {park_allocs} times"
    );
}

#[test]
fn warm_calm_cluster_roundtrip_allocates_once_per_delivered_packet() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let tb = SlicedTestbed::new(8, 2048);
    let wave = tb.counted_enterprise_wave(23, 512);
    let calm = AdversityProfile::disabled();
    for switches in [1, 2] {
        let mut cluster =
            Cluster::new(&tb.config(), ClusterConfig::slab(switches)).expect("cluster builds");
        tb.wire(&mut |mac, port| cluster.l2_add(mac, port));
        let mut tally = FaultTally::default();
        let (mut last, mut delivered) = (0, 0);
        for _ in 0..3 {
            let before = allocs();
            let merged = cluster.roundtrip_adverse(&wave, tb.sink_mac(), &calm, &mut tally);
            last = allocs() - before;
            delivered = merged.len() as u64;
        }
        assert_eq!(delivered, wave.len() as u64, "{switches} switches: a calm wave delivers all");
        assert!(
            last <= delivered + CLUSTER_WAVE_ALLOCS,
            "{switches} switches: 3rd wave allocated {last} times for {delivered} packets"
        );
        assert!(cluster.check_oracle().ok(), "{switches} switches: oracle");
    }
}
