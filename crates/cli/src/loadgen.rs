//! The `loadgen` command: a deterministic closed-loop load generator for
//! the TCP serving front end (see `cqc-net`).
//!
//! By default the command self-hosts a server on an ephemeral loopback
//! port, drives it with the seeded request mix of `cqc_workloads::mix`,
//! shuts it down gracefully, and reports throughput plus latency
//! percentiles. `--connect ADDR` drives an already-running server instead.
//!
//! The per-run transcript (response lines in request order) is the
//! determinism witness: two runs with the same `--seed` produce
//! byte-identical transcripts whatever `--connections`, `--threads`,
//! `--shards` or `--protocol` say. `--transcript PATH` saves it for
//! comparison; CI diffs two runs on every push.

use crate::common::approx_config;
use crate::{Args, CliError};
use cqc_net::loadgen::{run_against, transcript_fingerprint, LoadgenOptions, Protocol};
use cqc_net::{NetConfig, RunningServer};
use cqc_serve::ServerConfig;
use std::net::ToSocketAddrs;

/// Run `cqc loadgen`.
pub fn run_loadgen(args: &Args) -> Result<String, CliError> {
    let cfg = approx_config(args)?;
    let requests: usize = args.get_or("requests", 100)?;
    if requests == 0 {
        return Err(CliError::Usage("`--requests` must be at least 1".into()));
    }
    let connections: usize = args.get_or("connections", 4)?;
    if connections == 0 {
        return Err(CliError::Usage("`--connections` must be at least 1".into()));
    }
    let protocol = match args.value_of("protocol") {
        None => Protocol::Http,
        Some(raw) => Protocol::parse(raw).ok_or_else(|| {
            CliError::Usage(format!("unknown protocol `{raw}` (expected http | ndjson)"))
        })?,
    };
    let shards: Option<usize> =
        match args.value_of("shards") {
            None => None,
            Some(raw) => Some(raw.parse().map_err(|e| {
                CliError::Usage(format!("invalid value `{raw}` for `--shards`: {e}"))
            })?),
        };
    if shards == Some(0) {
        return Err(CliError::Usage("`--shards` must be at least 1".into()));
    }
    let method = args.value_of("method").map(str::to_string);
    // `--suite <class>` swaps the curated mix for the enumerated suite of
    // one Figure-1 class; unknown class names are structured usage errors
    // (exit code 2), not silent fallbacks.
    let suite = match args.value_of("suite") {
        None => None,
        Some(raw) => Some(cqc_workloads::parse_class(raw).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown suite class `{raw}` (expected cq | dcq | ecq)"
            ))
        })?),
    };
    // The mix carries its own per-request accuracy defaults; explicit
    // `--epsilon`/`--delta` override them for every request (passing the
    // validated values through `approx_config`).
    let accuracy = if args.value_of("epsilon").is_some() || args.value_of("delta").is_some() {
        Some((cfg.epsilon, cfg.delta))
    } else {
        None
    };
    let options = LoadgenOptions {
        requests,
        connections,
        seed: cfg.seed,
        shards,
        method,
        accuracy,
        protocol,
        suite,
    };

    let transcript_path = args.value_of("transcript").map(str::to_string);
    let connect = args.value_of("connect").map(str::to_string);
    // Every option has been read: reject typos before any traffic is sent.
    args.reject_unknown()?;

    // Self-host unless `--connect` points at a running server.
    let (addr, server) = match connect {
        Some(raw) => {
            let addr = raw
                .to_socket_addrs()
                .map_err(|e| CliError::Usage(format!("cannot resolve `{raw}`: {e}")))?
                .next()
                .ok_or_else(|| CliError::Usage(format!("`{raw}` resolves to no address")))?;
            (addr, None)
        }
        None => {
            let server = RunningServer::bind(
                "127.0.0.1:0",
                NetConfig {
                    serve: ServerConfig {
                        threads: cfg.threads,
                        epsilon: cfg.epsilon,
                        delta: cfg.delta,
                        ..ServerConfig::default()
                    },
                    max_requests: None,
                    ..NetConfig::default()
                },
            )
            .map_err(|e| CliError::Io(format!("cannot bind loopback server: {e}")))?;
            (server.addr(), Some(server))
        }
    };
    let report = run_against(addr, &options)
        .map_err(|e| CliError::Io(format!("loadgen against {addr}: {e}")))?;
    let served = server.map(RunningServer::shutdown);

    if let Some(path) = &transcript_path {
        std::fs::write(path, &report.transcript)
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
    }

    let mut text = String::new();
    if !args.switch("quiet") {
        match served {
            Some(served) => text.push_str(&format!(
                "server      : self-hosted on {addr}, served {served} request(s)\n"
            )),
            None => text.push_str("server      : external (--connect)\n"),
        }
        text.push_str(&format!(
            "loadgen     : {requests} request(s), {connections} connection(s), protocol={}, mix={}, seed={}, shards={}, method={}\n",
            options.protocol.name(),
            options
                .suite
                .map_or("curated".to_string(), |c| {
                    format!("suite:{}", cqc_workloads::class_name(c))
                }),
            options.seed,
            options
                .shards
                .map_or("request-default".to_string(), |s| s.to_string()),
            options.method.as_deref().unwrap_or("auto"),
        ));
        text.push_str(&format!(
            "throughput  : {:.1} req/s over {:.3} s\n",
            report.throughput_rps,
            report.wall.as_secs_f64()
        ));
        text.push_str(&format!(
            "latency_ms  : p50={:.3} p95={:.3} p99={:.3}\n",
            report.p50_ms, report.p95_ms, report.p99_ms
        ));
        text.push_str(&format!(
            "responses   : {} error(s), {} byte(s), transcript fnv1a {:016x}\n",
            report.errors,
            report.bytes_received,
            transcript_fingerprint(&report.transcript)
        ));
        if let Some(path) = &transcript_path {
            text.push_str(&format!("transcript  : wrote {path}\n"));
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args_from;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("cqc-cli-loadgen-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn loadgen_self_hosts_and_writes_reports() {
        let transcript = temp("transcript.ndjson");
        let out = run_loadgen(
            &args_from([
                "loadgen",
                "--requests",
                "6",
                "--connections",
                "2",
                "--seed",
                "11",
                "--method",
                "exact",
                "--transcript",
                transcript.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("loadgen     : 6 request(s)"), "{out}");
        assert!(out.contains("responses   : 0 error(s)"), "{out}");
        assert!(out.contains("transcript  : wrote"), "{out}");
        let lines = std::fs::read_to_string(&transcript).unwrap();
        assert_eq!(lines.lines().count(), 6);
        std::fs::remove_file(transcript).ok();
    }

    /// Run a quiet exact-method loadgen with extra options and return its
    /// transcript.
    fn transcript_of(tag: &str, extra: &[&str]) -> String {
        let transcript = temp(&format!("det-{tag}.ndjson"));
        let mut argv = vec![
            "loadgen",
            "--requests",
            "8",
            "--seed",
            "99",
            "--method",
            "exact",
            "--quiet",
            "--transcript",
            transcript.to_str().unwrap(),
        ];
        argv.extend_from_slice(extra);
        crate::run(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>()).unwrap();
        let text = std::fs::read_to_string(&transcript).unwrap();
        std::fs::remove_file(&transcript).ok();
        text
    }

    #[test]
    fn same_seed_same_transcript_different_concurrency() {
        let http = transcript_of("a", &["--connections", "1", "--protocol", "http"]);
        let ndjson = transcript_of("b", &["--connections", "3", "--protocol", "ndjson"]);
        let wide = transcript_of("c", &["--connections", "8"]);
        assert_eq!(http.lines().count(), 8);
        assert!(!http.contains("\"error\":"), "{http}");
        assert_eq!(
            http, ndjson,
            "transcripts drifted across connections/protocol"
        );
        assert_eq!(
            http, wide,
            "transcripts drifted at one request per connection"
        );
    }

    #[test]
    fn tracing_records_spans_without_changing_bytes() {
        let trace = temp("trace.ndjson");
        let plain = transcript_of("untraced", &["--connections", "2"]);
        let traced = transcript_of(
            "traced",
            &["--connections", "2", "--trace", trace.to_str().unwrap()],
        );
        assert_eq!(plain, traced, "tracing changed response bytes");
        let ndjson = std::fs::read_to_string(&trace).unwrap();
        assert!(ndjson.contains("\"name\":\"request\""), "{ndjson}");
        assert!(ndjson.contains("\"name\":\"work_item\""), "{ndjson}");
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn invalid_options_are_usage_errors() {
        for bad in [
            vec!["loadgen", "--requests", "0"],
            vec!["loadgen", "--connections", "0"],
            vec!["loadgen", "--protocol", "smoke-signals"],
            vec!["loadgen", "--shards", "0"],
            vec!["loadgen", "--connect", "not-an-address"],
            vec!["loadgen", "--suite", "xcq"],
            vec!["loadgen", "--suite", ""],
            // removed bench options are unknown options, caught before
            // any traffic is sent
            vec!["loadgen", "--bench-out", "x.json"],
        ] {
            let err = run_loadgen(&args_from(bad.clone()).unwrap()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} -> {err}");
        }
        // the exit-code convention: usage errors (unknown suite included)
        // exit 2, distinct from audit's 1 and success's 0
        for bad in [["--suite", "xcq"], ["--bench-out", "x.json"]] {
            let mut argv = vec!["loadgen".to_string()];
            argv.extend(bad.iter().map(|a| a.to_string()));
            assert_eq!(crate::exit_code(&crate::run(&argv)), 2, "{bad:?}");
        }
    }

    /// A sweep over connection counts is a series of plain runs: each point
    /// reports its own summary, and every point's transcript is the same.
    #[test]
    fn scaling_sweep_writes_the_curve_and_checks_determinism() {
        let mut transcripts = Vec::new();
        for connections in ["2", "6"] {
            let transcript = temp(&format!("sweep-c{connections}.ndjson"));
            let out = run_loadgen(
                &args_from([
                    "loadgen",
                    "--requests",
                    "12",
                    "--connections",
                    connections,
                    "--seed",
                    "17",
                    "--method",
                    "exact",
                    "--transcript",
                    transcript.to_str().unwrap(),
                ])
                .unwrap(),
            )
            .unwrap();
            assert!(
                out.contains(&format!(
                    "loadgen     : 12 request(s), {connections} connection(s)"
                )),
                "{out}"
            );
            assert!(out.contains("throughput  : "), "{out}");
            assert!(out.contains("responses   : 0 error(s)"), "{out}");
            transcripts.push(std::fs::read_to_string(&transcript).unwrap());
            std::fs::remove_file(&transcript).ok();
        }
        assert_eq!(transcripts[0].lines().count(), 12);
        assert_eq!(
            transcripts[0], transcripts[1],
            "transcripts drifted across connection counts"
        );
    }

    /// `--scaling` and `--obs-bench` are gone: every form of them, well
    /// formed or not, alone or combined, is an unknown option (exit 2).
    #[test]
    fn scaling_rejects_malformed_counts_and_obs_bench() {
        for bad in [
            vec!["loadgen", "--scaling", ""],
            vec!["loadgen", "--scaling", "0"],
            vec!["loadgen", "--scaling", "4"],
            vec!["loadgen", "--scaling", "4,x"],
            vec!["loadgen", "--obs-bench", "x.json"],
            vec!["loadgen", "--scaling", "4", "--obs-bench", "x.json"],
            vec!["loadgen", "--scaling", "4", "--trace", "x.ndjson"],
        ] {
            let err = run_loadgen(&args_from(bad.clone()).unwrap()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} -> {err}");
            let argv: Vec<String> = bad.iter().map(|a| a.to_string()).collect();
            assert_eq!(crate::exit_code(&crate::run(&argv)), 2, "{bad:?}");
        }
    }

    #[test]
    fn suite_mix_drives_an_enumerated_class() {
        let out = run_loadgen(
            &args_from([
                "loadgen",
                "--requests",
                "4",
                "--connections",
                "2",
                "--seed",
                "21",
                "--suite",
                "dcq",
                "--method",
                "exact",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("mix=suite:DCQ"), "{out}");
        assert!(out.contains("responses   : 0 error(s)"), "{out}");
    }
}
