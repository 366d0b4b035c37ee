//! `serve-http`: HTTP/1.1 keep-alive against a self-hosted `RunningServer`.
//!
//! About three requests in four come from the curated mix (4 queries, so
//! plan-cache hits); the rest come from the enumerated suite mixes (plan
//! cache misses and LRU evictions). Every request body is distinct. A
//! closed loop on 2 connections gives `ops_per_s`; an open loop at the
//! fixed reference rate gives the latencies, each timed from its send (how
//! late the send was against its due time is reported apart). This is the
//! only workload through `cqc-net`,
//! request JSON and facts parsing, and the plan cache.

use crate::calib;
use crate::spans::{write_out, Recorder, Span};
use crate::stats::{median, ms, p50_p99, percentile, ratio, within, Fingerprint};
use crate::{Args, Report, Setup};
use cqc_core::exact_count_answers;
use cqc_data::parse_facts;
use cqc_net::loadgen::render_request_line;
use cqc_net::{NetConfig, RunningServer};
use cqc_query::parse_query;
use cqc_runtime::split_seed;
use cqc_serve::json::{parse, Value};
use cqc_serve::{Server, ServerConfig};
use cqc_workloads::{request_spec, suite_request_spec, QueryClass, RequestSpec};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generating threads, each owning one keep-alive connection.
const CONNECTIONS: usize = 2;
/// The open-loop rate whose latencies are the end-to-end `lat_*` metrics.
const REFERENCE_RPS: f64 = 50.0;
/// Closed-loop windows: `ops_per_s` is the median rate over windows of
/// this many consecutive completions (about 0.6 s each).
const WINDOW_REQUESTS: usize = 64;
/// Share of `--seconds` spent in the closed loop; the rest is the
/// reference rung, sized so that a 30 s run puts over 1000 samples there
/// (10 beyond the p99).
const CLOSED_SHARE: f64 = 0.3;
/// The traced run's rate sweep for `net.max_rps_at_slo`, and its limit.
/// The closed-loop capacity is about 110–180 req/s on a 2-core box as its
/// speed drifts, so the rungs double: 100 req/s meets the limit through
/// that drift and 200 req/s always overloads the server. Rungs closer
/// together (50/75/100/125/150 at 4 s each) read 75–125 from run to run.
const RUNGS_RPS: [f64; 3] = [50.0, 100.0, 200.0];
const RUNG_SECONDS: f64 = 6.0;
const SLO_P99_MS: f64 = 500.0;
/// Requests of the traced run's sequential pass (client vs in-process).
const SEQUENTIAL_REQUESTS: usize = 160;
/// Failure probability of the suite-mix requests. At the mix's own
/// δ = 0.25, and at the server's default 0.05 too, a DCQ request on one of
/// their tiny databases missed its lone answer about once in two runs
/// (estimate 0 vs exact 1: seed 22 request 627, seed 31 request 250). That
/// is within the estimator's guarantee, but the `(1 ± ε)` output check
/// counts it as a failed op. Curated requests keep the mix's accuracy.
const SUITE_DELTA: f64 = 1e-4;
/// Closed-loop rate the request pool is sized for: over 2.5× the highest
/// capacity measured (157 req/s). A run whose closed loop outruns the pool fails rather than
/// repeat a body or shorten a phase.
const CEILING_RPS: f64 = 400.0;

pub struct Request {
    body: String,
    query: String,
    dbs: Vec<String>,
    exact: Vec<f64>,
    epsilon: f64,
}

pub struct Inputs {
    server: RunningServer,
    requests: Vec<Request>,
}

/// Request `index` of the run, and whether it comes from the curated mix.
///
/// Every block of four requests holds three curated requests and one suite
/// request at a seeded slot, and the suite requests cycle through CQ, DCQ
/// and ECQ: the suite requests are the costly ones, and with a coin flip
/// per request the closed loop's share of them moved its rate by a tenth
/// from seed to seed.
fn spec(seed: u64, index: u64) -> (RequestSpec, bool) {
    let block = index / 4;
    if index % 4 != split_seed(seed, 1 << 40 | block) % 4 {
        (request_spec(seed, index), true)
    } else {
        let class = [QueryClass::CQ, QueryClass::DCQ, QueryClass::ECQ][(block % 3) as usize];
        let mut s = suite_request_spec(class, seed, index);
        s.index = index;
        s.delta = SUITE_DELTA;
        (s, false)
    }
}

/// Requests a run of `args` may send, with every closed loop at
/// [`CEILING_RPS`]: the size of the request pool, so no body repeats.
pub fn pool_requests(args: &Args) -> usize {
    let closed = (args.seconds * CLOSED_SHARE * CEILING_RPS).ceil() as usize;
    let open = if args.trace {
        RUNGS_RPS
            .iter()
            .map(|&r| rung_requests(r, RUNG_SECONDS))
            .sum::<usize>()
            + SEQUENTIAL_REQUESTS
    } else {
        rung_requests(REFERENCE_RPS, args.seconds * (1.0 - CLOSED_SHARE))
    };
    closed + open
}

/// Request generation, exact answers for every work item, server start.
pub fn setup(seed: u64, pool: usize) -> Setup<Inputs> {
    let mut fingerprint = Fingerprint::default();
    let (mut curated, mut nonzero, mut items) = (0, 0, 0);
    let (mut min_universe, mut max_universe) = (usize::MAX, 0);
    let requests: Vec<Request> = (0..pool as u64)
        .map(|i| {
            let (s, is_curated) = spec(seed, i);
            let body = render_request_line(&s, None, None, None);
            fingerprint.add(body.as_bytes());
            curated += is_curated as usize;
            let query = parse_query(&s.query).expect("mix queries parse");
            let exact = s
                .dbs
                .iter()
                .map(|facts| {
                    let db = parse_facts(facts).expect("mix facts parse");
                    min_universe = min_universe.min(db.universe_size());
                    max_universe = max_universe.max(db.universe_size());
                    exact_count_answers(&query, &db) as f64
                })
                .collect::<Vec<f64>>();
            items += exact.len();
            nonzero += exact.iter().filter(|&&e| e > 0.0).count();
            Request {
                body,
                query: s.query,
                dbs: s.dbs,
                exact,
                epsilon: s.epsilon,
            }
        })
        .collect();
    let distinct: BTreeSet<&str> = requests.iter().map(|r| r.query.as_str()).collect();
    let bodies: BTreeSet<&str> = requests.iter().map(|r| r.body.as_str()).collect();
    // `cqc serve --listen` always records wide events and the flight
    // recorder, so the benchmark's server does too
    cqc_obs::wide::set_enabled(true);
    cqc_obs::flight::set_enabled(true);
    let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
    let notes = vec![
        format!(
            "traffic requests={} distinct_queries={} curated_share={:.3} work_items={} nonzero_item_share={:.3} universe={}-{} repeated_bodies={}",
            requests.len(),
            distinct.len(),
            curated as f64 / requests.len() as f64,
            items,
            nonzero as f64 / items as f64,
            min_universe,
            max_universe,
            requests.len() - bodies.len(),
        ),
        format!("fingerprint {}", fingerprint.hex()),
    ];
    Setup {
        inputs: Inputs { server, requests },
        notes,
    }
}

/// One keep-alive HTTP/1.1 connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Send one request and read the response: `(status, body)`.
    fn call(
        &mut self,
        method: &str,
        path: &str,
        trace: Option<&str>,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(t) = trace {
            head.push_str(&format!("traceparent: {t}\r\n"));
        }
        head.push_str("\r\n");
        head.push_str(body);
        self.stream.write_all(head.as_bytes())?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut buf = vec![0; length.ok_or_else(|| bad("no Content-Length"))?];
        self.reader.read_exact(&mut buf)?;
        String::from_utf8(buf)
            .map(|b| (status, b))
            .map_err(|_| bad("body is not UTF-8"))
    }
}

/// The output check for one `/count` response: HTTP 200, no `error`
/// member, and every work item's estimate within `(1 ± ε)·exact`.
fn check(request: &Request, status: u16, body: &str) -> bool {
    let Ok(value) = parse(body) else {
        return false;
    };
    let Some(results) = value.get("results").and_then(Value::as_arr) else {
        return false;
    };
    status == 200
        && value.get("error").is_none()
        && results.len() == request.exact.len()
        && results.iter().zip(&request.exact).all(|(r, &exact)| {
            r.get("estimate")
                .and_then(Value::as_f64)
                .is_some_and(|e| within(e, exact, request.epsilon))
        })
}

struct Sample {
    request: usize,
    /// Response time from the due time (open loop) or the send (closed).
    latency_ms: f64,
    /// Send time minus due time (open loop; 0 in the closed loop).
    late_ms: f64,
    /// Response time from the send.
    service_ms: f64,
    /// Send and completion time on the calibration time base.
    send_at: f64,
    done_at: f64,
    ok: bool,
}

/// How [`drive`] paces requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Each connection sends its next request when the last one returns,
    /// until the time is up.
    Closed { seconds: f64 },
    /// Request `k` is due at `k / rate` seconds; a connection takes the
    /// next request when it is free and waits for its due time. With
    /// `give_up`, the connections stop once a request would be sent that
    /// many seconds late (an overloaded rung of the sweep).
    Open { rate: f64, give_up: Option<f64> },
}

/// Drive `requests` over [`CONNECTIONS`] connections. Transport errors
/// count as failed ops (the connection is reopened); none is dropped.
/// Returns the samples, ordered by request, and whether a closed loop ran
/// out of requests before its time was up.
fn drive(
    addr: SocketAddr,
    requests: &[Request],
    first: usize,
    pace: Pace,
    traced: Option<&Recorder>,
) -> (Vec<Sample>, bool) {
    let next = AtomicUsize::new(0);
    let ran_out = AtomicBool::new(false);
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    let base = calib::at(started);
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| {
                let mut conn = Conn::connect(addr).ok();
                let mut local = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let time_up = |seconds| started.elapsed().as_secs_f64() >= seconds;
                    if k >= requests.len() - first {
                        if let Pace::Closed { seconds } = pace {
                            ran_out.fetch_or(!time_up(seconds), Ordering::Relaxed);
                        }
                        break;
                    }
                    let due = match pace {
                        Pace::Closed { seconds } => {
                            if time_up(seconds) {
                                break;
                            }
                            None
                        }
                        Pace::Open { rate, give_up } => {
                            let due = k as f64 / rate;
                            if give_up.is_some_and(|g| started.elapsed().as_secs_f64() > due + g) {
                                break;
                            }
                            Some(Duration::from_secs_f64(due))
                        }
                    };
                    let index = first + k;
                    let request = &requests[index];
                    if let Some(due) = due {
                        if let Some(wait) = due.checked_sub(started.elapsed()) {
                            std::thread::sleep(wait);
                        }
                    }
                    let due = due.unwrap_or_else(|| started.elapsed());
                    let send = started.elapsed();
                    let trace = traced.map(|_| format!("00-{index:032x}-{index:016x}-01"));
                    if conn.is_none() {
                        conn = Conn::connect(addr).ok();
                    }
                    let response = match conn.as_mut() {
                        Some(c) => c.call("POST", "/count", trace.as_deref(), &request.body),
                        None => Err(std::io::ErrorKind::NotConnected.into()),
                    };
                    let done = started.elapsed();
                    let ok = match &response {
                        Ok((status, body)) => check(request, *status, body),
                        Err(_) => {
                            conn = None;
                            false
                        }
                    };
                    if !ok {
                        eprintln!(
                            "failed request {index}: {response:?}, exact {:?}",
                            request.exact
                        );
                    }
                    if let Some(rec) = traced {
                        rec.push(Span {
                            id: index as u64 + 1,
                            parent: 0,
                            name: "request",
                            start_ns: send.as_nanos() as u64,
                            end_ns: done.as_nanos() as u64,
                            flag: ok,
                        });
                    }
                    local.push(Sample {
                        request: index,
                        latency_ms: ms(done - due),
                        late_ms: ms(send.saturating_sub(due)),
                        service_ms: ms(done - send),
                        send_at: base + send.as_secs_f64(),
                        done_at: base + done.as_secs_f64(),
                        ok,
                    });
                }
                samples.lock().expect("samples lock").extend(local);
            });
        }
    });
    let mut samples = samples.into_inner().expect("samples lock");
    samples.sort_by_key(|s| s.request);
    (samples, ran_out.into_inner())
}

fn count_ops(report: &mut Report, samples: &[Sample]) {
    report.attempted += samples.len() as u64;
    report.failed += samples.iter().filter(|s| !s.ok).count() as u64;
}

/// A phase that needs more requests than the pool holds fails the run.
fn pool_exhausted(report: &mut Report, phase: &str) {
    eprintln!("perfbench: the request pool ran out in the {phase}");
    report.note(format!("request pool exhausted in the {phase}"));
    report.attempted += 1;
    report.failed += 1;
}

/// A closed loop of `seconds` on [`CONNECTIONS`] connections starting at
/// request `first`; returns the samples and the median completion rate,
/// in reference seconds, over windows of [`WINDOW_REQUESTS`] consecutive
/// completions. Bursts of steal time hold up the two-connection pipeline
/// far more than their share of time (runs at 3.5% steal read a fifth
/// below runs at 1% over the whole loop), and the median leaves the
/// windows they hit out.
fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    first: usize,
    seconds: f64,
    traced: Option<&Recorder>,
    report: &mut Report,
) -> (Vec<Sample>, f64) {
    let start = calib::now();
    let (samples, ran_out) = drive(addr, requests, first, Pace::Closed { seconds }, traced);
    if ran_out {
        pool_exhausted(report, "closed loop");
    }
    count_ops(report, &samples);
    let speed = calib::speed();
    let mut done: Vec<f64> = samples.iter().map(|s| s.done_at).collect();
    done.sort_by(f64::total_cmp);
    let mut rates: Vec<f64> = done
        .chunks_exact(WINDOW_REQUESTS)
        .map(|w| (WINDOW_REQUESTS - 1) as f64 / speed.seconds(w[0], w[WINDOW_REQUESTS - 1]))
        .collect();
    if rates.is_empty() {
        let end = done.last().copied().unwrap_or(start);
        rates.push(samples.len() as f64 / speed.seconds(start, end));
    }
    (samples, median(&rates))
}

/// The first `n` requests from `first` on, or a failed run if the pool
/// holds fewer.
fn take_requests<'a>(
    requests: &'a [Request],
    first: usize,
    n: usize,
    report: &mut Report,
) -> &'a [Request] {
    if first + n > requests.len() {
        pool_exhausted(report, "open loop");
    }
    &requests[..(first + n).min(requests.len())]
}

fn rung_requests(rate: f64, seconds: f64) -> usize {
    (rate * seconds).round() as usize
}

/// The untraced run: closed loop, then the reference rung.
pub fn run(args: &Args, inputs: &Inputs, report: &mut Report) -> std::io::Result<()> {
    let addr = inputs.server.addr();
    let closed_seconds = args.seconds * CLOSED_SHARE;
    let (closed_samples, ops_per_s) =
        closed_loop(addr, &inputs.requests, 0, closed_seconds, None, report);
    let first = closed_samples.len();
    let n = rung_requests(REFERENCE_RPS, args.seconds * (1.0 - CLOSED_SHARE));
    let rung = take_requests(&inputs.requests, first, n, report);
    let (samples, _) = drive(
        addr,
        rung,
        first,
        Pace::Open {
            rate: REFERENCE_RPS,
            give_up: None,
        },
        None,
    );
    count_ops(report, &samples);
    let service: Vec<f64> = samples.iter().map(|s| s.service_ms).collect();
    report.note(format!("cost_spread_ms {}", crate::spread_note(&service)));
    let speed = calib::speed();
    let (due_p50, due_p99) = p50_p99(samples.iter().map(|s| s.latency_ms).collect());
    let (wall_p50, wall_p99) = p50_p99(service);
    report.note(format!(
        "reference_rung rps={REFERENCE_RPS} samples={} wall_p50_ms={wall_p50:.3} wall_p99_ms={wall_p99:.3} from_due_p50_ms={due_p50:.3} from_due_p99_ms={due_p99:.3} probe_median_ns={:.0} steal_frac={:.4}",
        samples.len(),
        speed.median_ns,
        speed.steal_frac
    ));
    // timed from the send: from the due time, the wait for one of the two
    // connections swung the median 9–36 ms from run to run
    let (p50, p99) = p50_p99(
        samples
            .iter()
            .map(|s| speed.ms(s.send_at, s.done_at))
            .collect(),
    );
    report.metric("ops_per_s", ops_per_s, "ops/s");
    report.metric("lat_p50_ms", p50, "ms");
    report.metric("lat_p99_ms", p99, "ms");
    Ok(())
}

fn get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let (status, body) = Conn::connect(addr)?.call("GET", path, None, "")?;
    if status == 200 {
        Ok(body)
    } else {
        Err(std::io::Error::other(format!(
            "GET {path}: status {status}"
        )))
    }
}

/// The traced run: the rate sweep, the wide-event cross-check, the
/// client-versus-in-process pass, and closed loops with and without
/// client spans.
pub fn run_traced(args: &Args, inputs: &Inputs, report: &mut Report) -> std::io::Result<()> {
    let addr = inputs.server.addr();
    let rec = Recorder::new();
    let mut next = 0;

    // Rate sweep; the reference rung also feeds the wide-event check.
    let mut max_rps = 0.0;
    let mut sustained = true;
    for rate in RUNGS_RPS {
        let n = rung_requests(rate, RUNG_SECONDS);
        let rung = take_requests(&inputs.requests, next, n, report);
        let traced = (rate == REFERENCE_RPS).then_some(&rec);
        // past twice the limit the rung has failed; stop feeding it
        let give_up = Some(2.0 * SLO_P99_MS / 1e3);
        let (samples, _) = drive(addr, rung, next, Pace::Open { rate, give_up }, traced);
        next += n;
        count_ops(report, &samples);
        let (_, p99) = p50_p99(samples.iter().map(|s| s.latency_ms).collect());
        // a growing backlog shows as late sends at the end of the rung
        let tail_late = samples[samples.len() * 9 / 10..]
            .iter()
            .map(|s| s.late_ms)
            .fold(0.0, f64::max);
        let ok = samples.len() == n
            && p99 <= SLO_P99_MS
            && tail_late <= SLO_P99_MS
            && samples.iter().all(|s| s.ok);
        report.note(format!(
            "rung rps={rate} samples={} unsent={} p99_ms={p99:.3} tail_late_ms={tail_late:.3} meets_slo={ok}",
            samples.len(),
            n - samples.len()
        ));
        sustained &= ok;
        if sustained {
            max_rps = rate;
        }
        if rate == REFERENCE_RPS {
            let mut late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
            late.sort_by(f64::total_cmp);
            report.layer("loadgen.late_ms_p99", percentile(&late, 0.99));
            let queue_ms = wide_queue_check(addr, &samples, report)?;
            report.layer("net.queue_ms", queue_ms);
        }
    }
    report.layer("net.max_rps_at_slo", max_rps);
    report.layer("net.shed", inputs.server.stats().requests_shed as f64);
    let loop_stats = parse(&get(addr, "/debug/loop")?).map_err(std::io::Error::other)?;
    let tick_ns = loop_stats
        .get("tick_ns_max")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    report.layer("net.loop_tick_max_ms", tick_ns / 1e6);

    // Sequential pass on a fresh server and a fresh in-process `Server`,
    // so both plan caches see the same request sequence.
    let sequential = &take_requests(&inputs.requests, next, SEQUENTIAL_REQUESTS, report)[next..];
    next += sequential.len();
    sequential_pass(&rec, sequential, report)?;

    // Closed loops without and with client spans, in ABBA order so that a
    // drift in machine speed cancels: the tracing overhead.
    let seconds = args.seconds * CLOSED_SHARE / 4.0;
    let mut rates = [0.0; 2];
    for traced in [false, true, true, false] {
        let spans = traced.then_some(&rec);
        let (samples, rate) = closed_loop(addr, &inputs.requests, next, seconds, spans, report);
        next += samples.len();
        rates[traced as usize] += rate / 2.0;
    }
    let [plain_rate, traced_rate] = rates;
    report.layer(
        "obs.trace_overhead_frac",
        ratio(plain_rate - traced_rate, plain_rate),
    );
    report.layer("runtime.width", cqc_runtime::resolve_threads(0) as f64);
    let metrics = get(addr, "/metrics")?;
    let series = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let hits = series("cqc_plan_cache_hits_total");
    let misses = series("cqc_plan_cache_misses_total");
    report.layer("serve.plan_hit_frac", ratio(hits, hits + misses));
    report.layer(
        "serve.plan_evictions",
        series("cqc_plan_cache_evictions_total"),
    );
    if let Err(e) = write_out(
        &format!("spans-serve-http-{}.ndjson", args.seed),
        &rec.take(),
    ) {
        report.note(format!("span file not written: {e}"));
    }
    Ok(())
}

/// Match the reference rung's requests to their wide events by
/// `traceparent` and return the mean server-side queue wait. A request
/// whose server-side queue + handle time exceeds its client-side service
/// time fails the check.
fn wide_queue_check(
    addr: SocketAddr,
    samples: &[Sample],
    report: &mut Report,
) -> std::io::Result<f64> {
    let tail = get(addr, "/debug/requests")?;
    let mut queue_ms = Vec::new();
    for line in tail.lines() {
        let Ok(event) = parse(line) else { continue };
        let trace = event.get("trace").and_then(Value::as_str).unwrap_or("");
        let Some(index) = trace
            .split('-')
            .nth(2)
            .and_then(|hex| usize::from_str_radix(hex, 16).ok())
        else {
            continue;
        };
        let Some(sample) = samples.iter().find(|s| s.request == index) else {
            continue;
        };
        let field = |name| event.get(name).and_then(Value::as_f64).unwrap_or(0.0) / 1e6;
        let (queue, handle) = (field("queue_ns"), field("handle_ns"));
        queue_ms.push(queue);
        report.attempted += 1;
        if queue + handle > sample.service_ms + 0.05 {
            report.failed += 1;
        }
    }
    report.note(format!(
        "wide events matched {} of {} reference-rung requests",
        queue_ms.len(),
        samples.len()
    ));
    Ok(queue_ms.iter().sum::<f64>() / queue_ms.len().max(1) as f64)
}

/// One connection, one request at a time, against a fresh server; then
/// the same bytes through a fresh in-process `Server::handle_line`.
fn sequential_pass(
    rec: &Recorder,
    requests: &[Request],
    report: &mut Report,
) -> std::io::Result<()> {
    let server = RunningServer::bind("127.0.0.1:0", NetConfig::default())?;
    let mut conn = Conn::connect(server.addr())?;
    let mut client = Vec::new();
    for r in requests {
        let t = Instant::now();
        let (status, body) = conn.call("POST", "/count", None, &r.body)?;
        client.push((ms(t.elapsed()), body.clone()));
        report.attempted += 1;
        report.failed += !check(r, status, &body) as u64;
    }
    drop(conn);
    server.shutdown();

    let local = Server::new(ServerConfig::default());
    let (mut overhead, mut handle_total, mut parse_q, mut parse_d) = (Vec::new(), 0.0, 0.0, 0.0);
    for (r, (client_ms, client_body)) in requests.iter().zip(&client) {
        let (response, handle_ms) = rec.time("handle", 0, |_| local.handle_line(&r.body));
        handle_total += handle_ms;
        overhead.push(client_ms - handle_ms);
        report.attempted += 1;
        report.failed += (&response != client_body) as u64;
        parse_q += rec
            .time("parse_query", 0, |_| parse_query(&r.query).is_ok())
            .1;
        for facts in &r.dbs {
            parse_d += rec.time("parse_facts", 0, |_| parse_facts(facts).is_ok()).1;
        }
    }
    let n = requests.len() as f64;
    report.layer("serve.handle_ms", handle_total / n);
    report.layer("net.overhead_ms", median(&overhead));
    report.layer("query.parse_ms", parse_q / n);
    report.layer("data.parse_ms", parse_d / n);
    Ok(())
}
