//! `ppbench` — the Split → NF → Merge round-trip benchmark.
//!
//! ```text
//! ppbench --workload <enterprise-roundtrip|min-size-roundtrip|tcp-chain-wave>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the five deployments of the workload several times (the median
//! build, scaled like the rates below, is `setup_s`), records a reference
//! wave on the scalar switch, warms every path, then measures for
//! `--seconds` in rounds: each round sends the same seeded wave once
//! through every path, in an order that rotates from round to round so
//! host drift hits all paths alike, and checks every delivered wave.
//! Each round also times a fixed calibration kernel (`calib.rs`). The
//! measured time is cut into equal blocks; each `*_pps` is the median
//! over blocks of the block's packets ÷ wave time, scaled by the block's
//! median kernel time over the kernel's nominal time. The per-layer
//! metrics are medians over rounds.
//!
//! With `--trace 1` every round also runs the traced per-layer passes
//! (`layers.rs`) and the run reports the per-layer metrics instead of the
//! end-to-end ones; spans and self times are written under
//! `ppbench/out/`. The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! holds provenance, per-metric quartiles and the failures found.

mod alloc;
mod calib;
mod check;
mod layers;
mod rig;
mod stats;
mod sys;
mod trace;
mod workload;

use check::{counter_delta, Reference, WaveCheck};
use layers::{LayerRound, LayerScratch, StoreReplay, STAGES};
use rig::{PathId, Rig};
use stats::Quartiles;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{SelfTime, Span, Tracer};
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Deployment builds per run; `setup_s` is their median, scaled to the
/// nominal host speed.
const SETUP_BUILDS: usize = 51;
/// Unmeasured rounds before the clock starts (pools, caches, NAT state).
const WARM_ROUNDS: usize = 2;
/// Fewest measured rounds a run reports on, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Equal blocks the measured time is cut into. The host's speed swings
/// between two levels in phases of 0.1 s to seconds, so a per-round median
/// lands on whichever level held most rounds; a block's rate averages over
/// several seconds of phases, and the median over blocks drops an odd one.
const BLOCKS: usize = 5;
/// Where traced runs write their spans and self times.
const OUT_DIR: &str = "ppbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: ppbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s >= 1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Args { workload, seed, seconds, trace }
        }
        _ => usage(),
    }
}

/// Running totals of the correctness checks.
///
/// `attempted` and `failed` count distinct (path, offered packet) pairs,
/// not packets × waves: how many waves fit in `--seconds` varies from run
/// to run, while which packets fail on which path does not, unless a path
/// diverges from the reference, which makes the run incorrect anyway.
/// The traced passes run on the scalar switch and count as that path.
/// `per_path` keeps the totals summed over every checked wave.
#[derive(Default)]
struct Verdicts {
    /// Offered packets of one wave.
    wave_packets: u64,
    /// Every (path, sequence number) some checked wave failed.
    failed_pairs: BTreeSet<(usize, u64)>,
    /// Deliveries of a sequence number no wave offered, over all waves.
    stray: u64,
    diverged: u64,
    counter_mismatches: u64,
    oracle_violations: Vec<String>,
    /// Failing sequence number -> number of failed (path, wave) checks.
    failed_seqs: BTreeMap<u64, u64>,
    /// Offered / failed packets per path, summed over every checked wave
    /// (traced passes under "traced").
    per_path: BTreeMap<&'static str, (u64, u64)>,
}

impl Verdicts {
    /// Records the check of one wave that ran on `path`; `label` names it
    /// in `per_path`.
    fn record(&mut self, path: PathId, label: &'static str, c: WaveCheck) {
        self.wave_packets = c.offered;
        self.stray += c.stray;
        self.diverged += c.diverged;
        let e = self.per_path.entry(label).or_default();
        e.0 += c.offered;
        e.1 += c.failed;
        for seq in c.failed_seqs {
            *self.failed_seqs.entry(seq).or_default() += 1;
            self.failed_pairs.insert((path.index(), seq));
        }
    }

    fn attempted(&self) -> u64 {
        self.wave_packets * PathId::ALL.len() as u64
    }

    fn failed(&self) -> u64 {
        self.failed_pairs.len() as u64 + self.stray
    }

    fn correct(&self) -> bool {
        self.diverged == 0 && self.counter_mismatches == 0 && self.oracle_violations.is_empty()
    }
}

/// The benchmark state of one run.
struct Bench {
    workload: Workload,
    wave: Vec<pp_fastpath::BatchPacket>,
    rig: Rig,
    reference: Reference,
    /// Each path's cumulative counters after its last checked wave.
    last: [payloadpark::CounterSnapshot; 5],
    verdicts: Verdicts,
}

impl Bench {
    /// Checks the last wave on `path`: every delivered packet, the park
    /// oracle, and that the wave's counters equal the reference wave's.
    fn check(&mut self, path: PathId) {
        let rig = &self.rig;
        let c = self.reference.check(|f| rig.for_each_delivered(path, f));
        self.verdicts.record(path, path.name(), c);
        self.settle(path, 1);
    }

    /// The park oracle for `path`, and that its counters moved by exactly
    /// `waves` reference waves since the last check.
    fn settle(&mut self, path: PathId, waves: u64) {
        let (report, counters) = self.rig.oracle(path);
        for v in report.violations() {
            if self.verdicts.oracle_violations.len() < 16 {
                self.verdicts.oracle_violations.push(format!("{}: {v}", path.name()));
            }
        }
        let delta = counter_delta(&self.last[path.index()], &counters);
        if delta != self.reference.counters.map(|c| waves * c) {
            self.verdicts.counter_mismatches += 1;
        }
        self.last[path.index()] = counters;
    }

    /// One wave on `path`, timed by its span in `tr`, then checked;
    /// returns wave ns and process CPU ns.
    fn timed_wave(&mut self, path: PathId, tr: &mut Tracer) -> (u64, u64) {
        self.rig.prepare(path, &self.wave);
        let cpu0 = sys::process_cpu_ns();
        let (rig, wave) = (&mut self.rig, &self.wave);
        let ((), ns) = tr.timed(path.span_name(), |_| rig.run(path, wave));
        let cpu = sys::process_cpu_ns() - cpu0;
        self.check(path);
        (ns, cpu)
    }
}

/// Per-round samples of every measured quantity, by name.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    fn quartiles(&self, name: &str) -> Quartiles {
        Quartiles::of(&self.0[name])
    }

    fn median(&self, name: &str) -> f64 {
        self.quartiles(name).median
    }
}

fn main() {
    sys::fix_malloc_thresholds();
    let args = parse_args();
    let workload = args.workload;
    let wave = workload.wave(args.seed);
    let n = wave.len();

    // Set-up: build every deployment several times, keep the last, and
    // time the calibration kernel after each build.
    let mut calibration = calib::Calibration::new();
    let mut tracer = Tracer::new();
    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let mut setup_calib = Vec::with_capacity(SETUP_BUILDS);
    let mut rig = None;
    for _ in 0..SETUP_BUILDS {
        drop(rig.take());
        let t0 = Instant::now();
        rig = Some(Rig::build(workload, &mut tracer));
        setup.push(t0.elapsed().as_secs_f64());
        setup_calib.push(calibration.solo());
    }
    let mut rig = rig.expect("at least one build");
    let (build_times, build_spans) = tracer.finish_wave();

    let reference = {
        let (sw, control, chain) = rig.scalar_parts();
        Reference::record(sw, control, chain, &wave)
    };
    let last = PathId::ALL.map(|p| rig.oracle(p).1);
    let mut bench = Bench { workload, wave, rig, reference, last, verdicts: Verdicts::default() };

    for _ in 0..WARM_ROUNDS {
        for path in PathId::ALL {
            bench.timed_wave(path, &mut tracer);
        }
    }
    tracer.finish_wave();

    let replay = StoreReplay::new(workload, &bench.wave, &bench.reference);
    let mut scratch = args.trace.then(|| LayerScratch::new(&mut bench.rig, workload, &replay));
    if let Some(s) = scratch.as_mut() {
        // One unmeasured traced round warms the layer passes too.
        traced(&mut bench, &mut tracer, s, &replay);
        tracer.finish_wave();
    }

    let mut samples = Samples::default();
    let mut layer_times: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    let mut kept_spans: Vec<Span> = build_spans;
    let mut mesh_bytes = 0u64;
    let budget = Duration::from_secs(args.seconds);
    // Per block and path: summed wave ns and waves.
    let mut blocks = [[(0u64, 0u64); 5]; BLOCKS];
    // Per block: the calibration kernel's solo and pair times per round.
    let mut block_solo: [Vec<f64>; BLOCKS] = Default::default();
    let mut block_pair: [Vec<f64>; BLOCKS] = Default::default();
    let steal0 = sys::steal_ticks();
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        let block = (start.elapsed().as_nanos() * BLOCKS as u128 / budget.as_nanos()) as usize;
        let block = block.min(BLOCKS - 1);
        let (solo, pair) = (calibration.solo(), calibration.pair());
        samples.push("host.solo_ns", solo);
        samples.push("host.pair_ns", pair);
        block_solo[block].push(solo);
        block_pair[block].push(pair);
        let block = &mut blocks[block];
        let mut ns = [0f64; 5];
        for k in 0..PathId::ALL.len() {
            let path = PathId::ALL[(rounds + k) % PathId::ALL.len()];
            let mesh0 = bench.rig.mesh_bytes();
            let (t, cpu) = bench.timed_wave(path, &mut tracer);
            mesh_bytes += bench.rig.mesh_bytes() - mesh0;
            block[path.index()].0 += t;
            block[path.index()].1 += 1;
            ns[path.index()] = t as f64 / n as f64;
            samples.push(format!("{}_pps", path.name()), 1e9 / ns[path.index()]);
            if matches!(path, PathId::Engine1 | PathId::Engine2) {
                samples.push(format!("{}.cpu_ns", path.name()), cpu as f64 / n as f64);
            }
        }
        let [scalar, engine1, _, cluster1, cluster2] = ns;
        samples.push("cluster.route_ns", cluster1 - scalar);
        samples.push("cluster.spread_ns", cluster2 - cluster1);
        if let Some(s) = scratch.as_mut() {
            let l = traced(&mut bench, &mut tracer, s, &replay);
            push_layers(&mut samples, &l, scalar, engine1, workload);
        }
        let (times, spans) = tracer.finish_wave();
        if rounds == 0 {
            kept_spans.extend(spans);
        }
        for (name, t) in times {
            let e = layer_times.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
        rounds += 1;
    }
    let measured = start.elapsed();
    let steal = (sys::steal_ticks() - steal0) as f64 / sys::USER_HZ;
    let steal_frac = steal / (measured.as_secs_f64() * sys::nproc() as f64);

    // Each block's rate, as measured and scaled to the nominal host speed.
    let mut block_pps = Samples::default();
    for path in PathId::ALL {
        // The engine's threads share both cores; the other paths run on
        // the driving thread alone.
        let gauge = match path {
            PathId::Engine1 | PathId::Engine2 => &block_pair,
            _ => &block_solo,
        };
        for (b, calib) in blocks.iter().zip(gauge) {
            let (ns, waves) = b[path.index()];
            if waves == 0 {
                continue;
            }
            let pps = (waves * n as u64) as f64 * 1e9 / ns as f64;
            let speed = stats::mean(calib) / calib::NOMINAL_NS;
            block_pps.push(format!("{}_pps", path.name()), pps * speed);
            block_pps.push(format!("{}_raw_pps", path.name()), pps);
        }
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let allocs = count_path_allocations(&mut bench);
        trace_metrics(&mut metrics, &samples, &bench, allocs, mesh_bytes, rounds);
        write_trace(&args, &bench, &kept_spans, &build_times, &layer_times, &samples, rounds);
    } else {
        for path in PathId::ALL {
            let name = format!("{}_pps", path.name());
            let v = block_pps.median(&name);
            metrics.push((name, v, "1/s"));
        }
        let r = &bench.reference;
        metrics.push((
            "nf_link_bytes_frac".into(),
            r.split_bytes as f64 / r.offered_bytes as f64,
            "frac",
        ));
        let v = &bench.verdicts;
        metrics.push((
            "delivered_ok_frac".into(),
            1.0 - v.failed() as f64 / v.attempted() as f64,
            "frac",
        ));
        let speed = calib::NOMINAL_NS / stats::median(&setup_calib);
        metrics.push(("setup_s".into(), stats::median(&setup) * speed, "s"));
        metrics.push(("peak_rss_mb".into(), sys::peak_rss_mb(), "MiB"));
    }

    samples.0.insert("setup_raw_s".into(), setup);
    samples.0.insert("setup.calib_ns".into(), setup_calib);
    println!("{}", detail_line(&args, &bench, &samples, &block_pps, rounds, measured, steal_frac));
    println!("{}", result_line(&bench.verdicts, &metrics));
}

/// One traced round plus the checks of everything it delivered.
fn traced(
    bench: &mut Bench,
    tracer: &mut Tracer,
    s: &mut LayerScratch,
    replay: &StoreReplay,
) -> LayerRound {
    let l = layers::traced_round(
        tracer,
        &mut bench.rig,
        s,
        bench.workload,
        &bench.wave,
        &bench.reference,
        replay,
    );
    // Both traced passes ran on the scalar switch: check each of their
    // deliveries, and the switch's counters across both waves.
    let scalar =
        bench.reference.check(|f| s.scalar_out.iter().for_each(|o| f(o.seq, o.port, o.bytes)));
    bench.verdicts.record(PathId::Scalar, "traced", scalar);
    let inline = bench.reference.check(|f| {
        s.inline_out.iter().flat_map(|b| b.iter()).for_each(|o| f(o.seq, o.port, o.bytes))
    });
    bench.verdicts.record(PathId::Scalar, "traced", inline);
    bench.settle(PathId::Scalar, 2);
    l
}

fn push_layers(samples: &mut Samples, l: &LayerRound, scalar: f64, engine1: f64, w: Workload) {
    samples.push("rmt.parse_ns", l.parse_ns);
    samples.push("rmt.deparse_ns", l.deparse_ns);
    samples.push("rmt.mat_ns", l.mat_ns());
    for (i, v) in l.stage_ns.iter().enumerate() {
        samples.push(format!("rmt.stage{i}_ns"), *v);
    }
    samples.push("rmt.switch_rest_ns", l.batch_ns - l.parse_ns - l.mat_ns() - l.deparse_ns);
    samples.push("store.probe_ns", l.probe_ns);
    samples.push("store.store_block_ns", l.store_block_ns);
    samples.push("store.merge_ns", l.merge_ns);
    samples.push("store.load_block_ns", l.load_block_ns);
    samples.push("store.lock_ns", l.lock_ns);
    samples.push("nf.chain_ns", l.chain_ns);
    samples.push("nf.reflect_ns", l.reflect_ns);
    samples.push("engine.inline_ns", l.inline_ns);
    samples.push("engine.plumbing_ns", engine1 - l.inline_ns);
    samples.push("park.occupancy_peak", l.occupancy_peak as f64);
    let nf = if w.is_chain() { l.chain_ns } else { l.reflect_ns };
    samples.push("scalar.attributed_ns", l.batch_ns + nf);
    samples.push("scalar.unattributed_ns", scalar - l.batch_ns - nf);
    samples.push("scalar.traced_ns", l.traced_scalar_ns);
    samples.push("trace.overhead_frac", l.traced_scalar_ns / scalar - 1.0);
}

/// Allocations per packet of one warm wave on the scalar, 1-worker engine
/// and 1-switch cluster paths (every thread counted).
fn count_path_allocations(bench: &mut Bench) -> [f64; 3] {
    let n = bench.wave.len() as f64;
    [PathId::Scalar, PathId::Engine1, PathId::Cluster1].map(|path| {
        bench.rig.prepare(path, &bench.wave);
        let rig = &mut bench.rig;
        let wave = &bench.wave;
        let count = alloc::count_allocations(|| rig.run(path, wave));
        bench.check(path);
        count as f64 / n
    })
}

fn trace_metrics(
    metrics: &mut Vec<(String, f64, &str)>,
    samples: &Samples,
    bench: &Bench,
    allocs: [f64; 3],
    mesh_bytes: u64,
    rounds: usize,
) {
    let n = bench.wave.len() as f64;
    let c = &bench.reference.counters;
    let mut med = |name: &str, unit| metrics.push((name.to_string(), samples.median(name), unit));
    for name in ["rmt.parse_ns", "rmt.deparse_ns", "rmt.mat_ns"] {
        med(name, "ns");
    }
    for i in 0..STAGES {
        med(&format!("rmt.stage{i}_ns"), "ns");
    }
    for name in [
        "rmt.switch_rest_ns",
        "store.probe_ns",
        "store.store_block_ns",
        "store.merge_ns",
        "store.load_block_ns",
        "store.lock_ns",
        "nf.chain_ns",
        "nf.reflect_ns",
        "engine.inline_ns",
        "engine.plumbing_ns",
        "engine1.cpu_ns",
        "engine2.cpu_ns",
        "cluster.route_ns",
        "cluster.spread_ns",
        "scalar.unattributed_ns",
    ] {
        med(name, "ns");
    }
    med("trace.overhead_frac", "frac");
    med("park.occupancy_peak", "count");
    // named() order: splits, merges, explicit_drops, evictions, premature.
    metrics.push(("park.parked_frac".into(), c[0] as f64 / n, "frac"));
    metrics.push(("park.evictions".into(), c[3] as f64, "count"));
    metrics.push(("park.premature_evictions".into(), c[4] as f64, "count"));
    for (name, v) in ["scalar", "engine", "cluster"].iter().zip(allocs) {
        metrics.push((format!("{name}.alloc_per_pkt"), v, "allocs/pkt"));
    }
    let per_pkt = mesh_bytes as f64 / (rounds as f64 * n);
    metrics.push(("cluster.mesh_bytes_per_pkt".into(), per_pkt, "B/pkt"));
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become null).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(v: &Verdicts, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#"{}: {{"value": {}, "unit": {}}}"#,
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        v.correct(),
        v.attempted(),
        v.failed(),
        body.join(", ")
    )
}

fn quartile_json(q: &Quartiles) -> String {
    format!(
        r#"{{"q1": {}, "median": {}, "q3": {}, "n": {}, "spread": {}}}"#,
        json_num(q.q1),
        json_num(q.median),
        json_num(q.q3),
        q.n,
        json_num(q.spread())
    )
}

fn detail_line(
    args: &Args,
    bench: &Bench,
    samples: &Samples,
    block_pps: &Samples,
    rounds: usize,
    measured: Duration,
    steal_frac: f64,
) -> String {
    let v = &bench.verdicts;
    let r = &bench.reference;
    let members = |s: &Samples| -> Vec<String> {
        s.0.keys().map(|k| format!("{}: {}", json_str(k), quartile_json(&s.quartiles(k)))).collect()
    };
    let quartiles = members(samples);
    let paths: Vec<String> = v
        .per_path
        .iter()
        .map(|(p, (offered, failed))| {
            format!(r#"{}: {{"offered": {offered}, "failed": {failed}}}"#, json_str(p))
        })
        .collect();
    let ref_failures: Vec<String> = r
        .failures()
        .iter()
        .take(64)
        .map(|(seq, why)| format!(r#"{{"seq": {seq}, "why": {}}}"#, json_str(why)))
        .collect();
    let failed_seqs: Vec<String> = v.failed_seqs.keys().take(64).map(u64::to_string).collect();
    let violations: Vec<String> = v.oracle_violations.iter().map(|s| json_str(s)).collect();
    format!(
        concat!(
            r#"{{"detail": {{"workload": {}, "seed": {}, "trace": {}, "nproc": {}, "git_rev": {}, "rustc": {}, "#,
            r#""wave_packets": {}, "rounds": {}, "measured_s": {}, "host_steal_frac": {}, "#,
            r#""failed_frac": {}, "nf_link_saved_frac": {}, "diverged": {}, "counter_mismatches": {}, "#,
            r#""oracle_violations": [{}], "reference_failures": [{}], "failed_seqs": [{}], "paths": {{{}}}, "#,
            r#""block_quartiles": {{{}}}, "quartiles": {{{}}}}}}}"#
        ),
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        sys::nproc(),
        json_str(&sys::git_rev()),
        json_str(sys::rustc_version()),
        bench.wave.len(),
        rounds,
        json_num(measured.as_secs_f64()),
        json_num(steal_frac),
        json_num(v.failed() as f64 / v.attempted() as f64),
        json_num(1.0 - r.split_bytes as f64 / r.offered_bytes as f64),
        v.diverged,
        v.counter_mismatches,
        violations.join(", "),
        ref_failures.join(", "),
        failed_seqs.join(", "),
        paths.join(", "),
        members(block_pps).join(", "),
        quartiles.join(", "),
    )
}

/// Writes the traced run's spans (build spans plus the first measured
/// round) and the per-name self times of every measured round.
fn write_trace(
    args: &Args,
    bench: &Bench,
    spans: &[Span],
    build_times: &BTreeMap<&'static str, SelfTime>,
    times: &BTreeMap<&'static str, SelfTime>,
    samples: &Samples,
    rounds: usize,
) {
    let stem = format!("{OUT_DIR}/{}-seed{}", args.workload.name(), args.seed);
    std::fs::create_dir_all(OUT_DIR).expect("create the trace output directory");
    std::fs::write(format!("{stem}.spans.jsonl"), trace::spans_jsonl(spans)).expect("write spans");
    let per_offered = (bench.wave.len() * rounds) as f64;
    let row = |(name, t): (&&str, &SelfTime), scale: f64| {
        format!(
            r#"{}: {{"count": {}, "total_ns": {}, "self_ns": {}, "self_ns_per_pkt": {}}}"#,
            json_str(name),
            t.count,
            t.total_ns,
            t.self_ns,
            json_num(t.self_ns as f64 / scale)
        )
    };
    let layers: Vec<String> = times.iter().map(|e| row(e, per_offered)).collect();
    let builds: Vec<String> = build_times.iter().map(|e| row(e, SETUP_BUILDS as f64)).collect();
    let m = |k: &str| json_num(samples.median(k));
    let text = format!(
        concat!(
            r#"{{"workload": {}, "seed": {}, "rounds": {}, "wave_packets": {}, "#,
            r#""scalar": {{"untraced_ns_per_pkt": {}, "traced_ns_per_pkt": {}, "attributed_ns_per_pkt": {}, "#,
            r#""unattributed_ns_per_pkt": {}, "tracing_overhead_frac": {}}}, "#,
            r#""self_times": {{{}}}, "build_self_times_per_build": {{{}}}}}"#,
            "\n"
        ),
        json_str(args.workload.name()),
        args.seed,
        rounds,
        bench.wave.len(),
        json_num(1e9 / samples.median("scalar_pps")),
        m("scalar.traced_ns"),
        m("scalar.attributed_ns"),
        m("scalar.unattributed_ns"),
        m("trace.overhead_frac"),
        layers.join(", "),
        builds.join(", "),
    );
    std::fs::write(format!("{stem}.selftime.json"), text).expect("write self times");
}
