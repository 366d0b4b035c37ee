//! The wire-level determinism matrix (the acceptance test of the network
//! layer): for one seeded request mix, the transcript of response bodies
//! received over real loopback TCP must be byte-identical across
//!
//! * server widths (`ServerConfig::threads`) {1, 2, 8},
//! * client connection counts {1, 4},
//! * shard counts {1, 4},
//!
//! and across the two wire protocols (HTTP `POST /count` vs raw NDJSON).
//! Shard count is echoed in responses, so the transcript comparison embeds
//! it per request — requests pin `shards` explicitly, making the bytes
//! comparable across every axis.
//!
//! A second test drives a 1000-request mix through the full stack,
//! pinning the loadgen path end to end.
//!
//! A parallel loop that finds the process-wide worker pool busy runs
//! inline on its caller, so the tests serialise on [`WIDTH_LOCK`]: an
//! 8-wide server must not quietly turn serial because another test holds
//! the pool.

use cqc_net::loadgen::{run_against, LoadgenOptions, Protocol};
use cqc_net::{NetConfig, RunningServer};
use cqc_serve::ServerConfig;
use std::sync::{Mutex, MutexGuard};

/// Held by every test in this file: the worker pool is process-wide.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn exclusive_pool() -> MutexGuard<'static, ()> {
    WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one loadgen configuration against a fresh server of the given
/// width (`0` = auto), returning the id-ordered transcript.
fn transcript(options: &LoadgenOptions, threads: usize) -> String {
    let config = NetConfig {
        serve: ServerConfig {
            threads,
            ..ServerConfig::default()
        },
        ..NetConfig::default()
    };
    let server = RunningServer::bind("127.0.0.1:0", config).expect("bind");
    let report = run_against(server.addr(), options).expect("loadgen run");
    server.shutdown();
    assert_eq!(
        report.transcript.lines().count(),
        options.requests,
        "every request answered"
    );
    assert_eq!(report.errors, 0, "healthy mix has no error responses");
    report.transcript
}

#[test]
fn transcripts_are_byte_identical_across_pools_connections_and_shards() {
    let _pool = exclusive_pool();
    let base = LoadgenOptions {
        requests: 12,
        connections: 1,
        seed: 0x5EED,
        shards: Some(1),
        method: None, // auto: the approximation engines, where
        // scheduling-dependent RNG use would show
        accuracy: None,
        protocol: Protocol::Http,
        suite: None,
    };
    let reference = transcript(&base, 0);
    // the mix exercises estimates (the `estimate_bits` member pins f64 bits)
    assert!(reference.contains("\"estimate_bits\""), "{reference}");

    let strip_shards = |t: &str| {
        t.replace("\"shards\":1", "\"shards\":N")
            .replace("\"shards\":4", "\"shards\":N")
    };
    let before = std::time::Instant::now();
    for pool_width in [1usize, 2, 8] {
        for connections in [1usize, 4] {
            for shards in [1usize, 4] {
                let options = LoadgenOptions {
                    connections,
                    shards: Some(shards),
                    ..base.clone()
                };
                let got = transcript(&options, pool_width);
                assert_eq!(
                    strip_shards(&got),
                    strip_shards(&reference),
                    "bytes drifted at pool={pool_width} connections={connections} shards={shards}"
                );
            }
        }
    }
    eprintln!("matrix wall: {:?}", before.elapsed());

    // protocol axis: raw NDJSON over TCP returns the same bytes as HTTP
    let ndjson = transcript(
        &LoadgenOptions {
            connections: 4,
            protocol: Protocol::Ndjson,
            ..base.clone()
        },
        0,
    );
    assert_eq!(ndjson, reference, "NDJSON and HTTP transcripts must agree");
}

#[test]
fn suite_mixes_are_deterministic_on_the_wire_for_every_class() {
    let _pool = exclusive_pool();
    // the enumerated suites are loadgen sources too: same seed, same
    // class → byte-identical transcripts across connections and protocols
    for class in cqc_workloads::ALL_CLASSES {
        let base = LoadgenOptions {
            requests: 6,
            connections: 1,
            seed: 0x517E,
            shards: None,
            // exact keeps the matrix affordable in debug builds; the
            // suite source and wire path are what's under test
            method: Some("exact".to_string()),
            accuracy: None,
            protocol: Protocol::Http,
            suite: Some(class),
        };
        let reference = transcript(&base, 0);
        let other = transcript(
            &LoadgenOptions {
                connections: 3,
                protocol: Protocol::Ndjson,
                ..base.clone()
            },
            0,
        );
        assert_eq!(reference, other, "suite transcript drifted for {class:?}");
    }
}

#[test]
fn a_1k_request_loadgen_run_completes_with_an_error_free_transcript() {
    let _pool = exclusive_pool();
    let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let options = LoadgenOptions {
        requests: 1000,
        connections: 8,
        seed: 0xBE9C4,
        shards: None,
        // exact keeps 1k requests affordable in debug builds; the wire
        // path is identical to the approximation methods
        method: Some("exact".to_string()),
        accuracy: None,
        protocol: Protocol::Http,
        suite: None,
    };
    let report = run_against(server.addr(), &options).expect("1k loadgen run");
    server.shutdown();
    assert_eq!(report.transcript.lines().count(), 1000);
    assert_eq!(report.errors, 0);
    assert!(report.throughput_rps > 0.0);
    assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
}
