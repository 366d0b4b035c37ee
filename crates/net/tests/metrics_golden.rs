//! The `/metrics` byte golden: one scrape of an idle server must render
//! every registered series — zero-valued included — in the canonical
//! registration order, byte for byte.
//!
//! Two contracts are pinned at once:
//!
//! * **byte stability** — the historical series (the five net counters,
//!   the six serve counters, the request-latency histogram) render exactly
//!   the bytes the pre-registry implementation emitted, so dashboards and
//!   scrapers survive the `cqc-obs` migration; new series are strictly
//!   appended after them;
//! * **the idle-server fix** — every series is registered at startup, so
//!   the very first scrape exposes the full zeroed inventory instead of
//!   only the counters that happened to be touched.
//!
//! The only non-literal lines are `cqc_pool_width` (1 + the helpers the
//! worker pool has spawned so far, formatted dynamically) and the event-loop block at
//! the very end (`cqc_event_loop_tick_seconds`, `cqc_event_loop_wakeups_total`):
//! the loop ticks while the scrape's own connection is accepted and read,
//! so those values are timing-dependent and checked structurally instead.
//!
//! A second golden scrapes **after traffic** and pins the cross-series
//! arithmetic: the serving core's request counter must equal the sum of
//! the per-protocol request counts, the latency histogram must have seen
//! exactly that many samples, and the `# TYPE` inventory must be unchanged
//! from the idle scrape.

use cqc_net::{NetConfig, RunningServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// The value of the single un-labelled series `name` in a scrape body.
fn series_value(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("series `{name}` missing in:\n{body}"))
        .parse()
        .unwrap_or_else(|e| panic!("series `{name}` not an integer: {e}"))
}

/// Scrape `GET /metrics` once over a fresh connection; returns the body.
fn scrape(server: &RunningServer) -> String {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    assert!(status_line.contains("200"), "{status_line}");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    String::from_utf8(body).unwrap()
}

/// A zeroed latency-bucket histogram block under `name`.
fn zeroed_histogram(name: &str) -> String {
    let mut out = format!("# TYPE {name} histogram\n");
    for le in [
        "0.0001", "0.000316", "0.001", "0.00316", "0.01", "0.0316", "0.1", "0.316", "1", "3.16",
        "10", "+Inf",
    ] {
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} 0\n"));
    }
    out.push_str(&format!("{name}_sum 0\n{name}_count 0\n"));
    out
}

fn counter(name: &str, help: &str, value: u64) -> String {
    format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n")
}

fn gauge(name: &str, help: &str, value: u64) -> String {
    format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n")
}

#[test]
fn an_idle_server_scrape_matches_the_golden_bytes() {
    let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let got = scrape(&server);
    server.shutdown();

    // the scrape itself is the one observed event: its TCP connection was
    // accepted (and is still open), and its GET was parsed before the
    // handler rendered the registry; the response counters bump only
    // after the body is written, so they are still zero in the body
    let mut expected = String::new();
    expected.push_str(&counter(
        "cqc_connections_total",
        "TCP connections accepted",
        1,
    ));
    expected.push_str(&counter(
        "cqc_http_requests_total",
        "HTTP requests parsed",
        1,
    ));
    expected.push_str(&counter(
        "cqc_ndjson_lines_total",
        "raw NDJSON lines served over TCP",
        0,
    ));
    expected.push_str(&counter(
        "cqc_http_responses_2xx_total",
        "HTTP responses with a 2xx status",
        0,
    ));
    expected.push_str(&counter(
        "cqc_http_responses_4xx_total",
        "HTTP responses with a 4xx status",
        0,
    ));
    expected.push_str(&counter(
        "cqc_serve_requests_total",
        "count requests handled by the serving core",
        0,
    ));
    expected.push_str(&counter(
        "cqc_serve_request_errors_total",
        "count requests answered with an error",
        0,
    ));
    expected.push_str(&counter(
        "cqc_shard_work_items_total",
        "work items (databases) evaluated across all requests",
        0,
    ));
    expected.push_str(&counter(
        "cqc_plan_cache_hits_total",
        "requests served from the prepared-plan cache",
        0,
    ));
    expected.push_str(&counter(
        "cqc_plan_cache_misses_total",
        "requests that prepared a new plan",
        0,
    ));
    expected.push_str(&counter(
        "cqc_plan_cache_evictions_total",
        "plans evicted by the LRU capacity bound",
        0,
    ));
    expected.push_str(&zeroed_histogram("cqc_request_latency_seconds"));
    expected.push_str(&counter(
        "cqc_oracle_calls_total",
        "EdgeFree oracle calls issued while answering count requests",
        0,
    ));
    expected.push_str(&counter(
        "cqc_colour_repetitions_total",
        "colour-coding repetitions budgeted across evaluated work items",
        0,
    ));
    expected.push_str(&zeroed_histogram("cqc_shard_merge_seconds"));
    expected.push_str(&gauge(
        "cqc_pool_width",
        "persistent worker-pool width (participating threads)",
        cqc_runtime::pool::global().width() as u64,
    ));
    expected.push_str(&gauge(
        "cqc_pool_queue_depth",
        "pool dispatches currently in flight",
        0,
    ));
    expected.push_str(&gauge(
        "cqc_active_connections",
        "TCP connections currently open",
        1,
    ));
    // admission-control series (event-driven rewrite): zero on an idle
    // server, appended after the historical prefix
    expected.push_str(&counter(
        "cqc_connections_rejected_total",
        "connections rejected at the admission cap with a load-shed response",
        0,
    ));
    expected.push_str(&counter(
        "cqc_requests_shed_total",
        "requests shed with an overload response (dispatch queue full)",
        0,
    ));
    expected.push_str(&counter(
        "cqc_connection_panics_total",
        "request handlers that panicked (answered with an internal error)",
        0,
    ));
    expected.push_str(&counter(
        "cqc_accept_errors_total",
        "transient accept failures backed off by the event loop",
        0,
    ));
    expected.push_str(&gauge(
        "cqc_dispatch_queue_depth",
        "requests queued or executing in the dispatcher",
        0,
    ));

    // Everything up to the event-loop block is byte-exact…
    assert!(
        got.starts_with(&expected),
        "idle /metrics drifted from the golden bytes:\ngot:\n{got}\nexpected prefix:\n{expected}"
    );
    // …the event-loop block itself is timing-dependent (the loop ticked
    // while this very scrape was accepted and read), so it is pinned
    // structurally: the tick histogram renders first, internally
    // consistent (+Inf bucket == count), and the wakeups counter closes
    // the scrape.
    let tail = &got[expected.len()..];
    assert!(
        tail.starts_with("# TYPE cqc_event_loop_tick_seconds histogram\n"),
        "{tail}"
    );
    let tick_count = series_value(tail, "cqc_event_loop_tick_seconds_count");
    let inf_bucket: u64 = tail
        .lines()
        .find_map(|l| l.strip_prefix("cqc_event_loop_tick_seconds_bucket{le=\"+Inf\"} "))
        .expect("+Inf bucket present")
        .parse()
        .unwrap();
    assert_eq!(inf_bucket, tick_count, "{tail}");
    assert!(tick_count > 0, "the loop never ticked? {tail}");
    let wakeups_block = format!(
        "# HELP cqc_event_loop_wakeups_total event-loop polls woken by the wake socket\n\
         # TYPE cqc_event_loop_wakeups_total counter\n\
         cqc_event_loop_wakeups_total {}\n",
        series_value(tail, "cqc_event_loop_wakeups_total")
    );
    assert!(tail.ends_with(&wakeups_block), "{tail}");
}

const COUNT_REQ: &str = r#"{"id": 1, "query": "ans(x) :- E(x, y), E(x, z), y != z", "dbs": ["universe 4\nrelation E 2\nE 0 1\nE 0 2\nE 3 1\nE 3 2\n"], "seed": 7, "method": "exact"}"#;

#[test]
fn a_post_traffic_scrape_keeps_structure_and_counter_arithmetic() {
    let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");

    // three HTTP `POST /count` requests over fresh connections…
    for _ in 0..3 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let request = format!(
            "POST /count HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{COUNT_REQ}",
            COUNT_REQ.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    }
    // …and two raw NDJSON lines over one sniffed connection
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..2 {
        stream.write_all(COUNT_REQ.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains("\"estimate\":2,"), "{response}");
    }
    drop(reader);
    drop(stream);

    let got = scrape(&server);
    server.shutdown();

    // structure: the `# TYPE` inventory is exactly the idle one, in order
    let types: Vec<&str> = got
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .collect();
    assert_eq!(
        types,
        [
            "cqc_connections_total counter",
            "cqc_http_requests_total counter",
            "cqc_ndjson_lines_total counter",
            "cqc_http_responses_2xx_total counter",
            "cqc_http_responses_4xx_total counter",
            "cqc_serve_requests_total counter",
            "cqc_serve_request_errors_total counter",
            "cqc_shard_work_items_total counter",
            "cqc_plan_cache_hits_total counter",
            "cqc_plan_cache_misses_total counter",
            "cqc_plan_cache_evictions_total counter",
            "cqc_request_latency_seconds histogram",
            "cqc_oracle_calls_total counter",
            "cqc_colour_repetitions_total counter",
            "cqc_shard_merge_seconds histogram",
            "cqc_pool_width gauge",
            "cqc_pool_queue_depth gauge",
            "cqc_active_connections gauge",
            "cqc_connections_rejected_total counter",
            "cqc_requests_shed_total counter",
            "cqc_connection_panics_total counter",
            "cqc_accept_errors_total counter",
            "cqc_dispatch_queue_depth gauge",
            "cqc_event_loop_tick_seconds histogram",
            "cqc_event_loop_wakeups_total counter",
        ],
        "{got}"
    );

    // arithmetic: the serving core handled exactly the per-protocol sum
    let http_counts = 3u64;
    let ndjson_lines = series_value(&got, "cqc_ndjson_lines_total");
    assert_eq!(ndjson_lines, 2);
    assert_eq!(
        series_value(&got, "cqc_serve_requests_total"),
        http_counts + ndjson_lines,
        "{got}"
    );
    // every handled request recorded exactly one latency sample
    assert_eq!(
        series_value(&got, "cqc_request_latency_seconds_count"),
        http_counts + ndjson_lines,
        "{got}"
    );
    // the three count responses are the only 2xx bumps in the body (the
    // final scrape's own 200 bumps after its body was rendered)
    assert_eq!(series_value(&got, "cqc_http_responses_2xx_total"), 3);
    assert_eq!(series_value(&got, "cqc_http_requests_total"), 4); // 3 + this scrape
    assert_eq!(series_value(&got, "cqc_serve_request_errors_total"), 0);
    assert_eq!(series_value(&got, "cqc_connections_total"), 5);
}
