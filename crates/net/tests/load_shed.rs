//! Admission control over real loopback TCP: over-cap connections and
//! queue-full requests get **well-formed, pinned overload bytes** — never a
//! silent close — the shed counters advance, and a client that retries
//! after the overload clears succeeds on the same connection.
//!
//! Also replays one mix at two connection counts: the transcripts must be
//! byte-identical (determinism under concurrency).

use cqc_net::loadgen::{run_against, LoadgenOptions, Protocol};
use cqc_net::{NetConfig, RunningServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const COUNT_REQ: &str = r#"{"id": 1, "query": "ans(x) :- E(x, y), E(x, z), y != z", "dbs": ["universe 4\nrelation E 2\nE 0 1\nE 0 2\nE 3 1\nE 3 2\n"], "seed": 7, "method": "exact"}"#;

/// The pinned overload body: identical JSON across both protocols.
const CAP_BODY: &str = "{\"id\":null,\"error\":\"server overloaded: connection limit reached\"}";
const QUEUE_BODY: &str = "{\"id\":null,\"error\":\"server overloaded: dispatch queue full\"}";

/// Read one fixed-length or chunked HTTP response; returns
/// (status, headers, body).
fn read_response<R: BufRead>(reader: &mut R) -> (u16, String, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut headers = String::new();
    let mut content_length = 0usize;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end().is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap();
            }
            if k.eq_ignore_ascii_case("transfer-encoding") && v.trim() == "chunked" {
                chunked = true;
            }
        }
        headers.push_str(&line);
    }
    let body = if chunked {
        let mut body = String::new();
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).unwrap();
            let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
            let mut chunk = vec![0u8; size + 2]; // chunk + CRLF
            reader.read_exact(&mut chunk).unwrap();
            if size == 0 {
                break;
            }
            body.push_str(std::str::from_utf8(&chunk[..size]).unwrap());
        }
        body
    } else {
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        String::from_utf8(body).unwrap()
    };
    (status, headers, body)
}

/// Scrape `/metrics` once over a fresh connection (served inline on the
/// event thread, so it works even while the dispatch queue is full).
fn scrape(server: &RunningServer) -> String {
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    read_response(&mut BufReader::new(stream)).2
}

#[test]
fn over_cap_ndjson_connections_get_the_pinned_error_line_then_close() {
    let server = RunningServer::bind(
        "127.0.0.1:0",
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    // occupy the only slot
    let held = TcpStream::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // an NDJSON peer over the cap gets the pinned error line, then EOF
    let mut second = TcpStream::connect(server.addr()).unwrap();
    second.write_all(COUNT_REQ.as_bytes()).unwrap();
    second.write_all(b"\n").unwrap();
    let mut raw = String::new();
    second.read_to_string(&mut raw).unwrap();
    assert_eq!(raw, format!("{CAP_BODY}\n"));
    assert_eq!(server.stats().connections_rejected, 1);
    // once the held slot frees, a new connection serves normally
    drop(held);
    std::thread::sleep(Duration::from_millis(150));
    let mut third = TcpStream::connect(server.addr()).unwrap();
    third.write_all(COUNT_REQ.as_bytes()).unwrap();
    third.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(&third).read_line(&mut line).unwrap();
    assert!(line.contains("\"estimate\":2,"), "{line}");
    server.shutdown();
}

#[test]
fn queue_full_requests_shed_with_identical_bytes_on_both_protocols_then_recover() {
    let server = RunningServer::bind(
        "127.0.0.1:0",
        NetConfig {
            dispatch_queue_limit: 1,
            dispatch_workers: 2,
            ..NetConfig::default()
        },
    )
    .unwrap();

    // Occupy the whole dispatch budget (limit 1) with one long-running
    // stream job: many exact-count lines, each a full serve pipeline.
    let slow_body: String = format!("{COUNT_REQ}\n").repeat(2000);
    let mut slow = TcpStream::connect(server.addr()).unwrap();
    write!(
        slow,
        "POST /stream HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{slow_body}",
        slow_body.len()
    )
    .unwrap();
    // wait until the job is actually in flight (scraped via the inline
    // /metrics endpoint, which bypasses the dispatcher)
    let mut waited = 0;
    while scrape(&server).contains("cqc_dispatch_queue_depth 0") && waited < 100 {
        std::thread::sleep(Duration::from_millis(10));
        waited += 1;
    }
    assert!(waited < 100, "stream job never reached the dispatcher");

    // HTTP shed: the pinned 503 with the queue-full body, keep-alive
    let mut http = TcpStream::connect(server.addr()).unwrap();
    write!(
        http,
        "POST /count HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{COUNT_REQ}",
        COUNT_REQ.len()
    )
    .unwrap();
    let mut http_reader = BufReader::new(http.try_clone().unwrap());
    let (status, headers, body) = read_response(&mut http_reader);
    assert_eq!(status, 503);
    assert_eq!(body, QUEUE_BODY);
    assert!(
        !headers.contains("Connection: close"),
        "queue-full shed must keep the connection alive:\n{headers}"
    );

    // NDJSON shed: the identical JSON body as an error line, stay open
    let mut ndjson = TcpStream::connect(server.addr()).unwrap();
    ndjson.write_all(COUNT_REQ.as_bytes()).unwrap();
    ndjson.write_all(b"\n").unwrap();
    let mut ndjson_reader = BufReader::new(ndjson.try_clone().unwrap());
    let mut line = String::new();
    ndjson_reader.read_line(&mut line).unwrap();
    assert_eq!(line, format!("{QUEUE_BODY}\n"));

    assert!(server.stats().requests_shed >= 2, "{:?}", server.stats());

    // Drain the slow response; the queue is now free.
    let (status, _, slow_out) = read_response(&mut BufReader::new(slow));
    assert_eq!(status, 200);
    assert_eq!(slow_out.matches("\"estimate\":2,").count(), 2000);

    // Recovery on the *same* connections that were shed.
    write!(
        http,
        "POST /count HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{COUNT_REQ}",
        COUNT_REQ.len()
    )
    .unwrap();
    let (status, _, body) = read_response(&mut http_reader);
    assert_eq!(status, 200);
    assert!(body.contains("\"estimate\":2,"), "{body}");
    ndjson.write_all(COUNT_REQ.as_bytes()).unwrap();
    ndjson.write_all(b"\n").unwrap();
    let mut line = String::new();
    ndjson_reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"estimate\":2,"), "{line}");

    server.shutdown();
}

#[test]
fn scaling_sweep_produces_identical_transcripts_across_connection_counts() {
    let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let base = LoadgenOptions {
        requests: 32,
        seed: 11,
        method: Some("exact".to_string()),
        protocol: Protocol::Http,
        ..LoadgenOptions::default()
    };
    let reports: Vec<_> = [2, 8]
        .into_iter()
        .map(|connections| {
            let options = LoadgenOptions {
                connections,
                ..base.clone()
            };
            run_against(server.addr(), &options).unwrap()
        })
        .collect();
    for report in &reports {
        assert_eq!(report.transcript.lines().count(), 32);
        assert_eq!(report.errors, 0);
    }
    assert_eq!(
        reports[0].transcript, reports[1].transcript,
        "transcripts diverged"
    );
    server.shutdown();
}
