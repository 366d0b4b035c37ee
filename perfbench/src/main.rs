//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-fptras|engine-fpras|serve-http --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run generates its inputs from `--seed`, sets them up several times
//! (reporting the median set-up time), measures for `--seconds`, checks
//! every output against exact answers, prints each metric by name with its
//! unit, and ends with one JSON line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is the separate traced run that reports the
//! per-layer split. The exit code is 1 when an output check fails and 2 on
//! a usage error. See `perfbench/NOTES.md` for the workloads.

mod calib;
mod fpras;
mod fptras;
mod serve;
mod spans;
mod stats;

use stats::median;
use std::time::Instant;

/// Seed used when `--seed` is not given (tuning and examples).
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// What a workload's set-up produced: its inputs plus human-readable notes
/// (traffic properties and the input fingerprint).
pub struct Setup<T> {
    pub inputs: T,
    pub notes: Vec<String>,
}

/// The per-layer metrics of the traced run, with their units. Every
/// traced run reports all of them; a layer a workload does not exercise
/// reads 0.
const LAYERS: [(&str, &str); 28] = [
    ("hom.calls", "count"),
    ("hom.calls_w1", "count"),
    ("hom.ns_per_call", "ns"),
    ("hom.positive_frac", "ratio"),
    ("hom.bag_ms", "ms"),
    ("core.oracle_self_ms", "ms"),
    ("core.colour_useful_frac", "ratio"),
    ("core.prepare_ms", "ms"),
    ("dlm.oracle_calls", "count"),
    ("dlm.self_ms", "ms"),
    ("query.build_b_ms", "ms"),
    ("query.parse_ms", "ms"),
    ("data.parse_ms", "ms"),
    ("automata.count_ms", "ms"),
    ("automata.states", "count"),
    ("automata.exact_frac", "ratio"),
    ("runtime.width", "count"),
    ("runtime.width_gain", "ratio"),
    ("serve.handle_ms", "ms"),
    ("serve.plan_hit_frac", "ratio"),
    ("serve.plan_evictions", "count"),
    ("net.overhead_ms", "ms"),
    ("net.queue_ms", "ms"),
    ("net.shed", "count"),
    ("net.loop_tick_max_ms", "ms"),
    ("net.max_rps_at_slo", "req/s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("loadgen.late_ms_p99", "ms"),
];

/// A run's result: op counts for the output check, metrics, and notes.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    layers: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "unlisted layer {name}"
        );
        self.layers.push((name, value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Print the notes, every metric by name with its unit, and the final
    /// JSON line. Returns whether every output check passed.
    fn print(&self, trace: bool) -> bool {
        let mut metrics = self.metrics.clone();
        if trace {
            metrics = LAYERS
                .iter()
                .map(|&(name, unit)| {
                    let value = self
                        .layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, v)| *v)
                        .unwrap_or(0.0);
                    (name, value, unit)
                })
                .collect();
        }
        for note in &self.notes {
            println!("{note}");
        }
        let failed_frac = stats::ratio(self.failed as f64, self.attempted as f64);
        println!(
            "ops attempted={} failed={} failed_frac={failed_frac}",
            self.attempted, self.failed
        );
        for (name, value, unit) in &metrics {
            println!("metric {name} = {value} {unit}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
        correct
    }
}

/// Whole passes over the op list an engine run makes at least.
const PASSES: usize = 2;

/// The engine workloads' closed loop with one in-process caller: run op
/// `i % ops` (`op` returns whether its output check passed) until
/// `args.seconds` have passed and at least [`PASSES`] whole passes over
/// the `ops` ops are done. Every time is in reference seconds (see
/// [`calib`]). Every metric is taken over the first [`PASSES`] passes
/// only, so every run measures the same ops, each the same number of
/// times; the rest of the run is checked but not measured.
pub fn closed_loop(
    args: &Args,
    report: &mut Report,
    ops: usize,
    mut op: impl FnMut(usize) -> bool,
) {
    let mut spans = Vec::new();
    let started = Instant::now();
    while spans.len() < PASSES * ops || started.elapsed().as_secs_f64() < args.seconds {
        let a = calib::now();
        let ok = op(spans.len() % ops);
        spans.push((a, calib::now()));
        report.attempted += 1;
        report.failed += !ok as u64;
    }
    let speed = calib::speed();
    let seconds: Vec<f64> = spans
        .iter()
        .map(|&(a, b)| speed.fork_join_seconds(a, b))
        .collect();
    let passes: Vec<&[f64]> = seconds.chunks_exact(ops).collect();
    let measured = &seconds[..PASSES * ops];
    let pass_rates: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.2}", ops as f64 / p.iter().sum::<f64>()))
        .collect();
    let latencies: Vec<f64> = measured.iter().map(|s| s * 1e3).collect();
    report.note(format!("cost_spread_ms {}", spread_note(&latencies)));
    report.note(format!(
        "ops={} passes={} of {ops} ops, pass_ops_per_s={}, wall_ops_per_s={:.3}, probe_median_ns={:.0} steal_frac={:.4}",
        spans.len(),
        passes.len(),
        pass_rates.join("/"),
        spans.len() as f64 / started.elapsed().as_secs_f64(),
        speed.median_ns,
        speed.steal_frac
    ));
    let (p50, p99) = stats::p50_p99(latencies);
    report.metric(
        "ops_per_s",
        measured.len() as f64 / measured.iter().sum::<f64>(),
        "ops/s",
    );
    report.metric("lat_p50_ms", p50, "ms");
    report.metric("lat_p99_ms", p99, "ms");
}

/// Run `V` variants of each of `n` ops, rotating which variant goes first
/// from op to op so that a drift in machine speed falls on all variants
/// alike. `run(op, variant)` returns the op's estimate; the result is each
/// variant's total seconds and the estimates per op.
pub fn interleaved<const V: usize>(
    n: usize,
    mut run: impl FnMut(usize, usize) -> f64,
) -> ([f64; V], Vec<[f64; V]>) {
    let mut walls = [0.0; V];
    let mut estimates = vec![[0.0; V]; n];
    for (k, row) in estimates.iter_mut().enumerate() {
        for j in 0..V {
            let v = (j + k) % V;
            let t = Instant::now();
            row[v] = run(k, v);
            walls[v] += t.elapsed().as_secs_f64();
        }
    }
    (walls, estimates)
}

/// Per-op cost spread for the workload notes: min / p50 / p99 / max ms.
pub fn spread_note(latencies_ms: &[f64]) -> String {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    format!(
        "min={:.3} p50={:.3} p99={:.3} max={:.3}",
        sorted.first().copied().unwrap_or(0.0),
        stats::percentile(&sorted, 0.5),
        stats::percentile(&sorted, 0.99),
        sorted.last().copied().unwrap_or(0.0)
    )
}

/// Run `setup` [`SETUP_REPEATS`] times, keep the last inputs, and record
/// the median set-up time in reference seconds.
fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> Setup<T>) -> T {
    let mut spans = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let a = calib::now();
        let s = setup();
        spans.push((a, calib::now()));
        last = Some(s);
    }
    let speed = calib::speed();
    let times: Vec<f64> = spans.iter().map(|&(a, b)| speed.seconds(a, b)).collect();
    let walls: Vec<f64> = spans.iter().map(|&(a, b)| b - a).collect();
    let Setup { inputs, notes } = last.expect("at least one set-up");
    for n in notes {
        report.note(n);
    }
    report.note(format!("setup wall_s median={:.4}", median(&walls)));
    report.metric("setup_s", median(&times), "s");
    inputs
}

fn main() {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("perfbench: `--workload` is required");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    calib::start();
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    match args.workload.as_str() {
        "engine-fptras" => {
            let inputs = timed_setup(&mut report, || fptras::setup(args.seed));
            if args.trace {
                fptras::run_traced(&args, &inputs, &mut report);
            } else {
                fptras::run(&args, &inputs, &mut report);
            }
        }
        "engine-fpras" => {
            let inputs = timed_setup(&mut report, || fpras::setup(args.seed));
            if args.trace {
                fpras::run_traced(&args, &inputs, &mut report);
            } else {
                fpras::run(&args, &inputs, &mut report);
            }
        }
        "serve-http" => {
            let pool = serve::pool_requests(&args);
            let inputs = timed_setup(&mut report, || serve::setup(args.seed, pool));
            let result = if args.trace {
                serve::run_traced(&args, &inputs, &mut report)
            } else {
                serve::run(&args, &inputs, &mut report)
            };
            // dropping the inputs shuts the server down and joins its threads
            drop(inputs);
            if let Err(e) = result {
                calib::stop();
                eprintln!("perfbench: serve-http transport error: {e}");
                std::process::exit(1);
            }
        }
        other => {
            calib::stop();
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    }
    calib::stop();
    report.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    if !report.print(args.trace) {
        std::process::exit(1);
    }
}
