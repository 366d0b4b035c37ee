//! The deterministic closed-loop load generator behind `cqc loadgen`.
//!
//! The request mix is synthesized by `cqc_workloads::mix` as a pure
//! function of `(seed, request count)`; request `i` is rendered to a
//! serve-protocol JSON line with `id = i` and its own derived counting
//! seed. Connections partition the mix round-robin (`i mod connections`)
//! and each runs a closed loop — send one request, wait for its response,
//! send the next — over HTTP/1.1 keep-alive (`POST /count`) or the raw
//! NDJSON TCP protocol.
//!
//! **The transcript is the determinism witness.** Responses are reassembled
//! in request-index order into one newline-delimited string. Because every
//! response body is a pure function of its request (the serving layer's
//! contract), the transcript is byte-identical across connection counts,
//! protocols, server widths, and shard counts — which is
//! exactly what `tests/wire_determinism.rs` and the CI smoke leg assert.
//! Latency and throughput, the *measured* quantities, are reported
//! separately.

use cqc_obs::Stopwatch;
use cqc_serve::json::Value;
use cqc_workloads::enumo::suite_request_mix;
use cqc_workloads::mix::{request_mix, RequestSpec};
use cqc_workloads::QueryClass;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Wire protocol the generator drives the server over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// `POST /count` over HTTP/1.1 with keep-alive.
    Http,
    /// Raw newline-delimited JSON over TCP (the sniffed protocol).
    Ndjson,
}

impl Protocol {
    /// The name used by `--protocol` and the loadgen summary.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Http => "http",
            Protocol::Ndjson => "ndjson",
        }
    }

    /// Parse a `--protocol` value.
    pub fn parse(raw: &str) -> Option<Protocol> {
        match raw {
            "http" => Some(Protocol::Http),
            "ndjson" | "tcp" => Some(Protocol::Ndjson),
            _ => None,
        }
    }
}

/// Load-generation options.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Total requests in the mix.
    pub requests: usize,
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Mix seed (drives queries, databases, and per-request seeds).
    pub seed: u64,
    /// Optional `shards` member added to every request.
    pub shards: Option<usize>,
    /// Optional `method` member added to every request
    /// (`auto | fpras | fptras | exact`).
    pub method: Option<String>,
    /// Optional `(ε, δ)` accuracy overriding the mix's per-request
    /// defaults (the CLI wires `--epsilon`/`--delta` here when given).
    pub accuracy: Option<(f64, f64)>,
    /// Wire protocol.
    pub protocol: Protocol,
    /// Request source: `None` replays the curated mix of
    /// `cqc_workloads::mix`; `Some(class)` replays the enumerated suite
    /// mix of that Figure-1 class (`cqc_workloads::enumo`).
    pub suite: Option<QueryClass>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            requests: 100,
            connections: 4,
            seed: 0xC0FFEE,
            shards: None,
            method: None,
            accuracy: None,
            protocol: Protocol::Http,
            suite: None,
        }
    }
}

/// The outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Requests per second (requests / wall).
    pub throughput_rps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Responses that carried an `error` member (0 on a healthy run).
    pub errors: u64,
    /// Response-body bytes received.
    pub bytes_received: u64,
    /// Response lines in request-index order, `\n`-terminated — the
    /// byte-comparison witness.
    pub transcript: String,
}

/// Render request `spec` as one serve-protocol JSON line. The rendering is
/// deterministic (insertion-ordered members, canonical numbers), so the
/// request bytes — like the response bytes — admit transcript comparison.
pub fn render_request_line(
    spec: &RequestSpec,
    shards: Option<usize>,
    method: Option<&str>,
    accuracy: Option<(f64, f64)>,
) -> String {
    let (epsilon, delta) = accuracy.unwrap_or((spec.epsilon, spec.delta));
    let mut members = vec![
        ("id".to_string(), Value::Num(spec.index as f64)),
        ("query".to_string(), Value::Str(spec.query.to_string())),
        (
            "dbs".to_string(),
            Value::Arr(spec.dbs.iter().map(|d| Value::Str(d.clone())).collect()),
        ),
        // decimal-string form: carries the full u64 without 2^53 concerns
        ("seed".to_string(), Value::Str(spec.seed.to_string())),
        ("epsilon".to_string(), Value::Num(epsilon)),
        ("delta".to_string(), Value::Num(delta)),
    ];
    if let Some(shards) = shards {
        members.push(("shards".to_string(), Value::Num(shards as f64)));
    }
    if let Some(method) = method {
        members.push(("method".to_string(), Value::Str(method.to_string())));
    }
    Value::Obj(members).render()
}

/// Drive `addr` with the seeded mix and assemble the report. Fails only on
/// transport errors; application-level `error` responses are counted and
/// kept in the transcript.
pub fn run_against(addr: SocketAddr, options: &LoadgenOptions) -> std::io::Result<LoadReport> {
    let connections = options.connections.max(1);
    let specs = match options.suite {
        None => request_mix(options.seed, options.requests),
        Some(class) => suite_request_mix(class, options.seed, options.requests),
    };
    let lines: Vec<String> = specs
        .iter()
        .map(|s| {
            render_request_line(
                s,
                options.shards,
                options.method.as_deref(),
                options.accuracy,
            )
        })
        .collect();

    // Responses land here as (request index, response line); latencies are
    // pooled across connections (nanoseconds).
    let results: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::with_capacity(lines.len()));
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(lines.len()));
    let started = Stopwatch::start();
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut workers = Vec::new();
        for c in 0..connections {
            let lines = &lines;
            let results = &results;
            let latencies = &latencies;
            workers.push(scope.spawn(move || -> std::io::Result<()> {
                let owned: Vec<usize> = (c..lines.len()).step_by(connections).collect();
                if owned.is_empty() {
                    return Ok(());
                }
                let mut client = Client::connect(addr, options.protocol)?;
                let mut local_results = Vec::with_capacity(owned.len());
                let mut local_latencies = Vec::with_capacity(owned.len());
                for i in owned {
                    let start = Stopwatch::start();
                    let response = client.roundtrip(&lines[i])?;
                    local_latencies.push(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    local_results.push((i, response));
                }
                results.lock().expect("results lock").extend(local_results);
                latencies
                    .lock()
                    .expect("latencies lock")
                    .extend(local_latencies);
                Ok(())
            }));
        }
        for worker in workers {
            worker.join().expect("loadgen connection panicked")?;
        }
        Ok(())
    })?;
    let wall = started.elapsed();

    let mut results = results.into_inner().expect("results lock");
    results.sort_unstable_by_key(|(i, _)| *i);
    let mut transcript = String::new();
    let mut errors = 0u64;
    let mut bytes_received = 0u64;
    for (_, line) in &results {
        bytes_received += line.len() as u64 + 1;
        if line.contains("\"error\":") {
            errors += 1;
        }
        transcript.push_str(line);
        transcript.push('\n');
    }
    let mut latencies = latencies.into_inner().expect("latencies lock");
    latencies.sort_unstable();
    let percentile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        // nearest-rank on the sorted sample
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1] as f64 / 1e6
    };
    Ok(LoadReport {
        wall,
        throughput_rps: results.len() as f64 / wall.as_secs_f64().max(1e-9),
        p50_ms: percentile(0.50),
        p95_ms: percentile(0.95),
        p99_ms: percentile(0.99),
        errors,
        bytes_received,
        transcript,
    })
}

/// FNV-1a (64-bit) of the transcript — a cheap cross-run fingerprint for
/// the loadgen summary.
pub fn transcript_fingerprint(transcript: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in transcript.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One closed-loop client connection.
enum Client {
    Http {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        host: String,
    },
    Ndjson {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
}

impl Client {
    /// Connect to `addr`.
    fn connect(addr: SocketAddr, protocol: Protocol) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(match protocol {
            Protocol::Http => Client::Http {
                reader,
                writer: stream,
                host: addr.to_string(),
            },
            Protocol::Ndjson => Client::Ndjson {
                reader,
                writer: stream,
            },
        })
    }

    /// Send one request line, block for its response line.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        match self {
            Client::Ndjson { reader, writer } => {
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                let mut response = String::new();
                if reader.read_line(&mut response)? == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the NDJSON connection",
                    ));
                }
                Ok(response.trim_end_matches('\n').to_string())
            }
            Client::Http {
                reader,
                writer,
                host,
            } => {
                write!(
                    writer,
                    "POST /count HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                    line.len()
                )?;
                writer.write_all(line.as_bytes())?;
                writer.flush()?;
                read_http_response(reader)
            }
        }
    }
}

/// Read one fixed-length HTTP response, returning its body. Any status is
/// accepted — application errors travel in the body and are counted by the
/// caller; chunked responses are not expected from `/count`.
fn read_http_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the HTTP connection",
        ));
    }
    if !status_line.starts_with("HTTP/1.1 ") && !status_line.starts_with("HTTP/1.0 ") {
        return Err(bad(format!("bad status line `{}`", status_line.trim())));
    }
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("EOF inside response headers".to_string()));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad Content-Length `{}`", value.trim())))?,
                );
            }
        }
    }
    let len = content_length.ok_or_else(|| bad("response without Content-Length".to_string()))?;
    let mut body = vec![0u8; len];
    std::io::Read::read_exact(reader, &mut body)?;
    String::from_utf8(body).map_err(|_| bad("non-UTF-8 response body".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_workloads::mix::request_spec;

    #[test]
    fn request_lines_render_deterministically() {
        let spec = request_spec(7, 3);
        let a = render_request_line(&spec, Some(4), None, None);
        let b = render_request_line(&spec, Some(4), None, None);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"id\":3,"), "{a}");
        assert!(a.contains("\"shards\":4"), "{a}");
        assert!(!a.contains("\"method\""), "{a}");
        let c = render_request_line(&spec, None, Some("exact"), None);
        // an explicit accuracy overrides the mix's per-request defaults
        let tight = render_request_line(&spec, None, None, Some((0.01, 0.02)));
        assert!(tight.contains("\"epsilon\":0.01"), "{tight}");
        assert!(tight.contains("\"delta\":0.02"), "{tight}");
        assert!(c.contains("\"method\":\"exact\""), "{c}");
        assert!(!c.contains("\"shards\""), "{c}");
        // the request line is valid JSON for the serve-side parser
        assert!(cqc_serve::json::parse(&a).is_ok());
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        assert_eq!(transcript_fingerprint(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(transcript_fingerprint("abc"), transcript_fingerprint("abc"));
        assert_ne!(transcript_fingerprint("abc"), transcript_fingerprint("abd"));
    }
}
