//! Machine-speed calibration.
//!
//! The benchmark's host is a virtual machine that shares its cores with
//! other work, in two ways that drift over seconds to minutes. The speed a
//! running thread gets varies (the same fixed CPU loop reads 80–130 ms
//! from one second to the next), and the hypervisor takes the virtual CPUs
//! away for a share of the time (steal time, about 1% in quiet periods and
//! 15–30% in busy ones, which slowed the two-thread engine by up to half
//! while single-threaded set-up and thread CPU time barely moved).
//! Medians inside one run cannot remove a drift that lasts the whole run,
//! so every timed figure is also normalised to a fixed reference machine.
//!
//! A probe thread runs a fixed kernel (integer mixing over a 16 KiB table,
//! no repository code) every [`PERIOD`], times it in thread CPU time (so
//! that being preempted by the benchmark's own threads does not count),
//! and reads the machine's cumulative steal time from `/proc/stat`. The
//! factor at a moment is [`REFERENCE_NS`] over the median kernel time of
//! the probes within [`SPAN_S`] of it, times the share of time the work
//! is not held up by stolen CPU over that span, where `s` is the stolen
//! share of CPU time: `1 − s` for independent threads (set-up, the
//! server's requests; at `s` ≈ 0.2 the server ran about `1 − s` times its
//! quiet rate) and `(1 − s)^`[`FORK_JOIN_EXPONENT`] for the engine's
//! fork-join work on both CPUs, which waits whenever either is stolen. A
//! wall interval becomes reference seconds by integrating that factor over
//! it. A change to the repository's code leaves the kernel
//! untouched, so a faster op still shows as fewer reference seconds.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Time between probes.
const PERIOD: Duration = Duration::from_millis(20);
/// Kernel steps per probe (about 0.6 ms at the reference speed).
const KERNEL_STEPS: u32 = 100_000;
/// Kernel time at the reference speed: the median on an Intel Xeon
/// 2-vCPU virtual machine in a quiet period. Figures are reported at this
/// speed.
const REFERENCE_NS: f64 = 600_000.0;
/// Half-width of the window whose probes give the speed at a moment.
const SPAN_S: f64 = 1.0;
/// Resolution of the speed curve.
const BUCKET_S: f64 = 0.25;
/// How the engine's two-thread fork-join rate falls with steal: fitted as
/// `rate ∝ (1 − s)^k` over ten `engine-fptras` runs of each of two seeds
/// at `s` = 0.01–0.18, which gave `k` = 1.33 and 1.42.
const FORK_JOIN_EXPONENT: f64 = 1.4;

struct Probe {
    epoch: Instant,
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

#[derive(Clone, Copy)]
struct Sample {
    /// Seconds since the epoch at the probe's midpoint.
    at: f64,
    kernel_ns: f64,
    /// Cumulative steal and total CPU time of the machine, in ticks.
    steal: u64,
    total: u64,
}

static PROBE: OnceLock<Probe> = OnceLock::new();

/// The machine's cumulative `(steal, total)` CPU ticks from the first
/// line of `/proc/stat` (`user nice system idle iowait irq softirq
/// steal …`), or zeros where there is none.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn kernel(table: &mut [u32; 4096]) -> u32 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u32 = 0;
    for _ in 0..KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = ((x as u32) ^ acc) as usize & 4095;
        acc = acc.wrapping_add(table[i]).rotate_left(5);
        table[i] = table[i].wrapping_mul(0x2545_F491) ^ acc;
        if acc & 3 == 0 {
            acc ^= x as u32;
        }
    }
    acc
}

/// Start the probe thread (once per process), before the first set-up.
pub fn start() {
    PROBE.get_or_init(|| {
        let epoch = Instant::now();
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (s, st) = (samples.clone(), stop.clone());
        let handle = std::thread::spawn(move || {
            let mut table = [0u32; 4096];
            for (i, v) in table.iter_mut().enumerate() {
                *v = i as u32;
            }
            while !st.load(Ordering::Relaxed) {
                let mid = epoch.elapsed().as_secs_f64();
                let c = thread_cpu_ns();
                black_box(kernel(black_box(&mut table)));
                let kernel_ns = (thread_cpu_ns() - c) as f64;
                let (steal, total) = cpu_ticks();
                s.lock().expect("probe lock").push(Sample {
                    at: mid,
                    kernel_ns,
                    steal,
                    total,
                });
                std::thread::sleep(PERIOD);
            }
        });
        Probe {
            epoch,
            samples,
            stop,
            handle: Mutex::new(Some(handle)),
        }
    });
}

/// Stop the probe thread and wait for it to end.
pub fn stop() {
    if let Some(p) = PROBE.get() {
        p.stop.store(true, Ordering::Relaxed);
        if let Some(h) = p.handle.lock().expect("probe handle lock").take() {
            let _ = h.join();
        }
    }
}

fn probe() -> &'static Probe {
    PROBE.get().expect("calib::start() runs first")
}

/// Seconds since the probe's epoch: the time base of [`Speed`].
pub fn at(t: Instant) -> f64 {
    t.saturating_duration_since(probe().epoch).as_secs_f64()
}

pub fn now() -> f64 {
    at(Instant::now())
}

/// The speed curve up to now, per bucket: the CPU speed factor and the
/// share of CPU time not stolen.
pub struct Speed {
    factors: Vec<(f64, f64)>,
    /// The run's median kernel time and stolen share of CPU time, for
    /// the notes.
    pub median_ns: f64,
    pub steal_frac: f64,
}

/// Snapshot the probes taken so far into a speed curve.
pub fn speed() -> Speed {
    let samples = probe().samples.lock().expect("probe lock").clone();
    let median_of = |s: &[Sample]| {
        let mut v: Vec<f64> = s.iter().map(|x| x.kernel_ns).collect();
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied()
    };
    let median_ns = median_of(&samples).unwrap_or(REFERENCE_NS);
    let end = samples.last().map_or(0.0, |s| s.at);
    let buckets = (end / BUCKET_S) as usize + 1;
    let factors = (0..buckets)
        .map(|b| {
            let centre = (b as f64 + 0.5) * BUCKET_S;
            let lo = samples.partition_point(|s| s.at < centre - SPAN_S);
            let hi = samples.partition_point(|s| s.at <= centre + SPAN_S);
            let window = &samples[lo..hi];
            let unstolen = match (window.first(), window.last()) {
                (Some(a), Some(b)) if b.total > a.total => {
                    1.0 - (b.steal - a.steal) as f64 / (b.total - a.total) as f64
                }
                _ => 1.0,
            };
            (
                REFERENCE_NS / median_of(window).unwrap_or(median_ns),
                unstolen,
            )
        })
        .collect();
    let (first, last) = (samples.first(), samples.last());
    let steal_frac = match (first, last) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    };
    Speed {
        factors,
        median_ns,
        steal_frac,
    }
}

impl Speed {
    /// Reference seconds for the wall interval `[a, b]` (seconds on the
    /// probe's time base), with the unstolen share raised to `exponent`.
    fn on(&self, a: f64, b: f64, exponent: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        let (first, last) = ((a / BUCKET_S) as usize, (b / BUCKET_S) as usize);
        (first..=last)
            .map(|k| {
                let lo = a.max(k as f64 * BUCKET_S);
                let hi = b.min((k + 1) as f64 * BUCKET_S);
                let (speed, unstolen) = self.factors[k.min(self.factors.len() - 1)];
                (hi - lo).max(0.0) * speed * unstolen.powf(exponent)
            })
            .sum()
    }

    /// Reference seconds of work on independent threads.
    pub fn seconds(&self, a: f64, b: f64) -> f64 {
        self.on(a, b, 1.0)
    }

    pub fn ms(&self, a: f64, b: f64) -> f64 {
        self.seconds(a, b) * 1e3
    }

    /// Reference seconds of the engine's fork-join work.
    pub fn fork_join_seconds(&self, a: f64, b: f64) -> f64 {
        self.on(a, b, FORK_JOIN_EXPONENT)
    }
}
