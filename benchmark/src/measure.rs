//! Host-side measurement: the calibration kernel behind `run_rel`, and
//! timing one child process from spawn to exit while polling its peak
//! resident set.  All of it is host time.

use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Fixed work whose duration tracks the machine's speed of the moment: a
/// dependent walk through a 4 MiB table (as large as a core's private cache,
/// like the simulator's queues) with an integer mix on each step.  Run right
/// before a rep, it turns that rep's `run_s` into `run_rel`, which cancels
/// much of the drift of a shared box that makes absolute times from
/// different hours incomparable.  Of the kernels tried (README, "Noise")
/// this one, paired rep by rep, halved the run-to-run spread; pure integer
/// work did not slow down when the simulator did.
pub(crate) struct Calibration {
    table: Vec<u32>,
}

const TABLE_BITS: u32 = 20;
/// Steps per calibration run: about 0.25 s on the box the benchmark was
/// written on.  A constant, never tuned at run time, so `run_rel` values
/// from different runs share one denominator.
const CALIBRATION_STEPS: u64 = 8_000_000;

impl Calibration {
    pub(crate) fn new() -> Self {
        let mask = (1u32 << TABLE_BITS) - 1;
        // A full-period LCG (c odd, a = 1 mod 4) visits every entry once,
        // so the walk below never settles into a short cached cycle.
        let table = (0..=mask)
            .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & mask)
            .collect();
        Calibration { table }
    }

    /// Run the kernel once; returns its wall-clock seconds.
    pub(crate) fn run(&self) -> f64 {
        let start = Instant::now();
        let mut index = 0usize;
        let mut mix = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..CALIBRATION_STEPS {
            index = self.table[index] as usize;
            mix = (mix ^ index as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
            mix ^= mix >> 29;
            // The next load depends on the mix as well as the table, so
            // neither chain can run ahead of the other.
            index = (index ^ (mix as usize & 0xFF)) & (self.table.len() - 1);
        }
        black_box(mix);
        start.elapsed().as_secs_f64()
    }
}

/// One finished child process.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChildRun {
    /// Wall clock from just before spawn until `wait` returned.
    pub(crate) wall_s: f64,
    /// Highest `VmHWM` seen in `/proc/<pid>/status`, as the kernel's kB
    /// divided by 1024; 0 if the child was never caught alive.
    pub(crate) peak_rss_mb: f64,
    pub(crate) success: bool,
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Run `command` to completion with stdout redirected to `stdout_to` (or
/// discarded) and stderr to `stderr_to`.
///
/// A poller thread reads the child's `VmHWM` while the caller blocks in
/// `wait`, so the wall clock is exact and the poll rate does not limit it:
/// every 0.5 ms for the first 50 ms (a warm `suite` lives ~10 ms), every
/// 10 ms after that.  A zombie has no `VmHWM`, so the value is the last one
/// read while the child still ran.
pub(crate) fn run_child(
    command: &mut Command,
    stdout_to: Option<&Path>,
    stderr_to: &Path,
) -> ChildRun {
    let open = |path: &Path| {
        std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()))
    };
    command
        .stdin(Stdio::null())
        .stdout(stdout_to.map_or_else(Stdio::null, |p| Stdio::from(open(p))))
        .stderr(Stdio::from(open(stderr_to)));
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let mut child = command
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn {:?}: {e}", command.get_program()));
    let pid = child.id();
    let (status, wall_s, peak_kb) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut peak = 0u64;
            while !done.load(Ordering::SeqCst) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak = peak.max(kb);
                }
                std::thread::sleep(if start.elapsed() < Duration::from_millis(50) {
                    Duration::from_micros(500)
                } else {
                    Duration::from_millis(10)
                });
            }
            peak
        });
        let status = child.wait();
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let peak = poller.join().expect("the poller thread does not panic");
        (status, wall_s, peak)
    });
    ChildRun {
        wall_s,
        peak_rss_mb: peak_kb as f64 / 1024.0,
        success: status.map(|s| s.success()).unwrap_or(false),
    }
}

/// Time `body` back to back — at least `min_reps` times and for at least
/// `min_time` — and return the fastest call's seconds.  This is one
/// `setup_s` sample: set-up is short, so a run takes such a slice before
/// every rep (which spreads the samples over the run like the reps
/// themselves) and reports the median of the slices.  Interference on a
/// shared box only ever adds time, and set-up, being mostly allocation and
/// first touches, takes the worst of it (its plain median moved 1.9x between
/// two runs an hour apart while the slice minima moved 1.16x).
///
/// What `body` builds is dropped outside the timed interval, and only after
/// the next one has been built.  Freed at once, a large world goes back to
/// the kernel and the next build pays its page faults again; kept one
/// generation, its memory is reused and the timing is the construction's
/// own work.
pub(crate) fn fastest_of<T>(
    min_reps: usize,
    min_time: Duration,
    mut body: impl FnMut() -> T,
) -> f64 {
    let mut fastest = f64::INFINITY;
    let mut previous = None;
    let begin = Instant::now();
    let mut reps = 0;
    while reps < min_reps || begin.elapsed() < min_time {
        let start = Instant::now();
        let built = body();
        fastest = fastest.min(start.elapsed().as_secs_f64());
        drop(previous.replace(built));
        reps += 1;
    }
    fastest
}
