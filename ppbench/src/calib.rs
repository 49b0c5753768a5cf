//! A fixed calibration kernel that gauges the host's current speed.
//!
//! The benchmark's host is a few vCPUs of a shared machine. Its speed
//! shifts for minutes at a time, mostly with the time the hypervisor
//! steals from the vCPUs, and that moves every path's wall-clock rate.
//! The kernel below does the same work every time (dependent reads from
//! an L2-resident table, integer mixing and frame copies) and never calls
//! the program under test, so its wall time tracks the host alone. Each
//! round times it once on the driving thread (`solo`) and once on the
//! driving thread and a helper thread at the same time (`pair`), and each
//! reported rate is scaled by the kernel's mean time in the same block
//! over `NOMINAL_NS`: the rate the path would reach on a host where the
//! kernel takes exactly `NOMINAL_NS`.

use std::hint::black_box;
use std::time::Instant;

/// Table words (256 KiB): held in L2 once warm, whatever the program
/// left in the caches.
const TABLE_WORDS: usize = 1 << 15;
/// Dependent reads per pass.
const CHASES: usize = 1 << 16;
/// Bytes copied per pass, in 1500-byte frames.
const FRAME: usize = 1500;
const COPIES: usize = 1 << 10;

/// About the kernel's time on the host the benchmark was tuned on (2
/// vCPUs of an Intel Xeon VM), so scaled figures read close to measured
/// ones there. A fixed scale: changing it rescales every scaled metric.
pub const NOMINAL_NS: f64 = 800_000.0;

/// The kernel's state for one thread.
struct Kernel {
    table: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = mix(x);
                x
            })
            .collect();
        let src = (0..FRAME * 64).map(|i| i as u8).collect();
        Kernel { table, src, dst: vec![0; FRAME * 64] }
    }

    /// Runs the kernel twice and returns the wall time of the second run
    /// in ns. The first brings the table back into cache, so what the
    /// program's last wave left there does not change the timed run.
    fn run(&mut self) -> f64 {
        self.pass();
        let t0 = Instant::now();
        self.pass();
        t0.elapsed().as_nanos() as f64
    }

    fn pass(&mut self) {
        let mask = TABLE_WORDS - 1;
        let mut x = black_box(1u64);
        for _ in 0..CHASES {
            x = mix(x ^ self.table[x as usize & mask]);
        }
        for i in 0..COPIES {
            let off = (i % 64) * FRAME;
            self.dst[off..off + FRAME].copy_from_slice(&self.src[off..off + FRAME]);
            self.dst[off] ^= x as u8;
        }
        black_box((x, &self.dst));
    }
}

/// The kernel on the driving thread and on one helper thread.
pub struct Calibration {
    main: Kernel,
    helper: Kernel,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration { main: Kernel::new(), helper: Kernel::new() }
    }

    /// The kernel's time on the driving thread alone, in ns: the speed
    /// of the core a single-threaded path runs on.
    pub fn solo(&mut self) -> f64 {
        self.main.run()
    }

    /// The mean of the kernel's times on the driving thread and on a
    /// helper thread running at the same time, in ns: the speed of the
    /// two cores the engine's threads share.
    pub fn pair(&mut self) -> f64 {
        let Calibration { main, helper } = self;
        std::thread::scope(|s| {
            let h = s.spawn(|| helper.run());
            let a = main.run();
            (a + h.join().expect("calibration helper thread")) / 2.0
        })
    }
}

/// splitmix64's finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
