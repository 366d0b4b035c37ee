//! A request cannot widen the process-wide worker pool past the server.
//!
//! The pool has no width cap of its own: it grows helpers up to the widest
//! parallel call it is asked for. A request's `"workers"` member is
//! therefore clamped to the server's width (`ServerConfig::threads`), and
//! this test pins the clamp from the outside — a request asking for 4096
//! workers across 64 shards leaves `cqc_pool_width` at most the server's
//! width. The test has its own process, so no other test grows the pool.

use cqc_net::{NetConfig, RunningServer};
use cqc_serve::ServerConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const SERVER_WIDTH: usize = 2;

/// Send one HTTP/1.1 request on a fresh connection; returns the response
/// body after checking for a 200 status.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    raw.split_once("\r\n\r\n").unwrap().1.to_string()
}

#[test]
fn a_wide_request_leaves_the_pool_no_wider_than_the_server() {
    let config = NetConfig {
        serve: ServerConfig {
            threads: SERVER_WIDTH,
            ..ServerConfig::default()
        },
        ..NetConfig::default()
    };
    let server = RunningServer::bind("127.0.0.1:0", config).expect("bind");
    let facts = r#""universe 4\nrelation E 2\nE 0 1\nE 0 2\nE 3 1\nE 3 2\n""#;
    let request = format!(
        r#"{{"id": 1, "query": "ans(x) :- E(x, y), E(x, z), y != z", "dbs": [{facts}, {facts}, {facts}, {facts}], "seed": 7, "method": "exact", "shards": 64, "workers": 4096}}"#
    );
    let response = http(server.addr(), "POST", "/count", &request);
    assert!(response.contains("\"estimate\":2,"), "{response}");

    let metrics = http(server.addr(), "GET", "/metrics", "");
    server.shutdown();
    let width: usize = metrics
        .lines()
        .find_map(|l| l.strip_prefix("cqc_pool_width "))
        .expect("cqc_pool_width exported")
        .parse()
        .unwrap();
    assert!(
        (1..=SERVER_WIDTH).contains(&width),
        "a 4096-worker request widened the pool to {width} (server width {SERVER_WIDTH})"
    );
}
