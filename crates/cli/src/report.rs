//! The `report` command: offline analysis of `--trace` NDJSON files and
//! of wide-event request logs.
//!
//! `cqc report flame --trace FILE` parses the event stream a traced run
//! wrote, reassembles the span forest (`cqc_obs::trace::build_forest`),
//! and renders a per-phase wall-time table plus flamegraph-compatible
//! folded stacks (self-time in microseconds). `--folded-out PATH` writes
//! the raw folded lines for external flamegraph tooling.
//!
//! `cqc report requests --log FILE` consumes a wide-event request log
//! (`cqc serve --request-log`, one NDJSON record per request) and renders
//! the top-N slowest requests, a per-class latency breakdown, and the
//! load-shed timeline. Flight-recorder dump files parse too — their trace
//! lines are skipped, their wide lines analysed.

use crate::{Args, CliError};
use cqc_obs::trace::{build_forest, fold_stacks, phase_totals, Event, EventKind};
use cqc_serve::json::{parse, Value};

/// Run `cqc report`.
pub fn run_report(args: &Args) -> Result<String, CliError> {
    match args.positional() {
        [kind] if kind == "flame" => run_flame(args),
        [kind] if kind == "requests" => run_requests_report(args),
        [other, ..] => Err(CliError::Usage(format!(
            "unknown report `{other}` (expected `flame` or `requests`); run `cqc help`"
        ))),
        [] => Err(CliError::Usage(
            "`report` expects a report kind (`cqc report flame --trace FILE` or \
             `cqc report requests --log FILE`)"
                .into(),
        )),
    }
}

/// One parsed wide-event record from a request log (the inverse of
/// `cqc_obs::WideEvent::to_json_line`, reduced to the members the report
/// consumes).
struct WideRow {
    seq: u64,
    t_ns: u64,
    protocol: String,
    endpoint: String,
    class: String,
    outcome: String,
    status: u64,
    queue_ns: u64,
    handle_ns: u64,
    prepare_ns: u64,
    evaluate_ns: u64,
    bytes: u64,
    trace: String,
}

/// Parse a request-log (or `/debug/requests` tail, or flight-dump) NDJSON
/// file. Wide records are collected; `dropped` markers are summed; flight
/// headers and trace events (present in dump files) are skipped.
fn parse_request_log(text: &str) -> Result<(Vec<WideRow>, u64), CliError> {
    let bad =
        |line: usize, m: String| CliError::Facts(format!("request-log line {}: {m}", line + 1));
    let mut rows = Vec::new();
    let mut dropped = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| bad(i, e.to_string()))?;
        match v.get("type").and_then(Value::as_str) {
            Some("wide") => {}
            Some("dropped") => {
                dropped += v.get("count").and_then(Value::as_u64).unwrap_or(0);
                continue;
            }
            // flight headers and trace events inside dump files
            Some(_) => continue,
            None => return Err(bad(i, "missing `type`".into())),
        }
        let s = |key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();
        let n = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        rows.push(WideRow {
            seq: n("seq"),
            t_ns: n("t_ns"),
            protocol: s("protocol"),
            endpoint: s("endpoint"),
            class: s("class"),
            outcome: s("outcome"),
            status: n("status"),
            queue_ns: n("queue_ns"),
            handle_ns: n("handle_ns"),
            prepare_ns: n("prepare_ns"),
            evaluate_ns: n("evaluate_ns"),
            bytes: n("bytes"),
            trace: s("trace"),
        });
    }
    Ok((rows, dropped))
}

/// Nearest-rank percentile of an ascending nanosecond slice, in ms.
fn pct_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1e6
}

/// `cqc report requests`: top-N slowest requests, per-class latency
/// breakdown, shed timeline — the offline consumer of a wide-event log.
fn run_requests_report(args: &Args) -> Result<String, CliError> {
    let path = args.require("log")?;
    let top: usize = args.get_or("top", 10)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
    let (rows, dropped) = parse_request_log(&text)?;
    if rows.is_empty() {
        return Err(CliError::Facts(format!(
            "`{path}` holds no wide events (is this a `--request-log` file?)"
        )));
    }

    let mut out = String::new();
    let count_of = |o: &str| rows.iter().filter(|r| r.outcome == o).count();
    out.push_str(&format!(
        "requests    : {} wide event(s) (ok {}, error {}, shed {}, panic {})",
        rows.len(),
        count_of("ok"),
        count_of("error"),
        count_of("shed"),
        count_of("panic"),
    ));
    if dropped > 0 {
        out.push_str(&format!(
            " — {dropped} older event(s) dropped from the tail"
        ));
    }
    out.push('\n');

    // Top-N slowest by what the client felt: queue wait + handling.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(rows[i].queue_ns + rows[i].handle_ns));
    out.push_str(&format!(
        "\nslowest {} (queue + handle):\n",
        top.min(rows.len())
    ));
    out.push_str(
        "seq      proto   endpoint  outcome  status  queue_ms  handle_ms  prep_ms  eval_ms    bytes  class/trace\n",
    );
    for &i in order.iter().take(top) {
        let r = &rows[i];
        let tag = if r.trace.is_empty() {
            r.class.clone()
        } else {
            format!("{} [{}]", r.class, r.trace)
        };
        out.push_str(&format!(
            "{:<8} {:<7} {:<9} {:<8} {:>6} {:>9.3} {:>10.3} {:>8.3} {:>8.3} {:>8}  {}\n",
            r.seq,
            r.protocol,
            r.endpoint,
            r.outcome,
            r.status,
            r.queue_ns as f64 / 1e6,
            r.handle_ns as f64 / 1e6,
            r.prepare_ns as f64 / 1e6,
            r.evaluate_ns as f64 / 1e6,
            r.bytes,
            tag,
        ));
    }

    // Per-class handling-latency breakdown (classes in first-seen order).
    let mut classes: Vec<(String, Vec<u64>)> = Vec::new();
    for r in &rows {
        let name = if r.class.is_empty() { "-" } else { &r.class };
        match classes.iter_mut().find(|(c, _)| c == name) {
            Some((_, v)) => v.push(r.handle_ns),
            None => classes.push((name.to_string(), vec![r.handle_ns])),
        }
    }
    out.push_str("\nper-class handle latency (ms):\n");
    out.push_str("class                     count      p50      p95      p99\n");
    for (name, mut ns) in classes {
        ns.sort_unstable();
        out.push_str(&format!(
            "{name:<25} {:>5} {:>8.3} {:>8.3} {:>8.3}\n",
            ns.len(),
            pct_ms(&ns, 0.50),
            pct_ms(&ns, 0.95),
            pct_ms(&ns, 0.99),
        ));
    }

    // Shed timeline: seconds since the first event in the log.
    let t0 = rows.iter().map(|r| r.t_ns).min().unwrap_or(0);
    let mut shed_buckets: Vec<(u64, u64)> = Vec::new(); // (second, count)
    for r in rows.iter().filter(|r| r.outcome == "shed") {
        let sec = r.t_ns.saturating_sub(t0) / 1_000_000_000;
        match shed_buckets.iter_mut().find(|(s, _)| *s == sec) {
            Some((_, n)) => *n += 1,
            None => shed_buckets.push((sec, 1)),
        }
    }
    shed_buckets.sort_unstable();
    if shed_buckets.is_empty() {
        out.push_str("\nshed        : none\n");
    } else {
        out.push_str("\nshed timeline (seconds since first event):\n");
        for (sec, n) in shed_buckets {
            out.push_str(&format!("  t+{sec:<4}s : {n} shed\n"));
        }
    }
    Ok(out)
}

/// Parse one NDJSON trace file back into events (the inverse of
/// `Trace::to_ndjson`). Returns the events plus the dropped-event count
/// from the trailing marker line, if any.
fn parse_trace(text: &str) -> Result<(Vec<Event>, u64), CliError> {
    let bad = |line: usize, m: String| CliError::Facts(format!("trace line {}: {m}", line + 1));
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| bad(i, e.to_string()))?;
        let kind_name = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| bad(i, "missing `type`".into()))?;
        if kind_name == "dropped" {
            dropped += v.get("count").and_then(Value::as_u64).unwrap_or(0);
            continue;
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| bad(i, "missing `name`".into()))?
            .to_string();
        let hex_id = |key: &str| -> Result<u64, CliError> {
            let raw = v
                .get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| bad(i, format!("missing hex member `{key}`")))?;
            u64::from_str_radix(raw, 16).map_err(|e| bad(i, format!("bad `{key}`: {e}")))
        };
        let kind = match kind_name {
            "enter" => EventKind::Enter {
                name,
                id: hex_id("id")?,
                parent: hex_id("parent")?,
            },
            "exit" => EventKind::Exit {
                name,
                id: hex_id("id")?,
            },
            "instant" => EventKind::Instant {
                name,
                detail: v
                    .get("detail")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
            },
            other => return Err(bad(i, format!("unknown event type `{other}`"))),
        };
        events.push(Event {
            thread: v.get("thread").and_then(Value::as_u64).unwrap_or(0) as u32,
            seq: v.get("seq").and_then(Value::as_u64).unwrap_or(0),
            t_ns: v.get("t_ns").and_then(Value::as_u64).unwrap_or(0),
            kind,
        });
    }
    events.sort_by_key(|e| (e.thread, e.seq));
    Ok((events, dropped))
}

fn run_flame(args: &Args) -> Result<String, CliError> {
    let path = args.require("trace")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
    let (events, dropped) = parse_trace(&text)?;
    let forest = build_forest(&events);
    let phases = phase_totals(&forest);
    let folded = fold_stacks(&forest);
    let instants = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Instant { .. }))
        .count();

    let mut out = String::new();
    out.push_str(&format!(
        "trace       : {} event(s), {} span(s), {instants} instant(s)",
        events.len(),
        forest.nodes.len(),
    ));
    if dropped > 0 {
        out.push_str(&format!(
            " — WARNING: {dropped} event(s) dropped (trace incomplete)"
        ));
    }
    out.push('\n');

    out.push_str("\nphase         spans   total_ms\n");
    for (name, count, total_ns) in &phases {
        out.push_str(&format!(
            "{name:<13} {count:>5}   {:.3}\n",
            *total_ns as f64 / 1e6
        ));
    }

    out.push_str("\nfolded stacks (self-time µs):\n");
    let mut folded_text = String::new();
    for (stack, self_us) in &folded {
        folded_text.push_str(&format!("{stack} {self_us}\n"));
    }
    out.push_str(&folded_text);

    if let Some(folded_path) = args.value_of("folded-out") {
        std::fs::write(folded_path, &folded_text)
            .map_err(|e| CliError::Io(format!("cannot write `{folded_path}`: {e}")))?;
        out.push_str(&format!("\nfolded      : wrote {folded_path}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args_from;
    use cqc_obs::trace::Trace;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("cqc-cli-report-{}-{name}", std::process::id()));
        path
    }

    /// A hand-built trace: request(10µs) > work_item(4µs), one instant.
    fn sample_trace() -> Trace {
        let ev = |seq: u64, t_ns: u64, kind: EventKind| Event {
            thread: 0,
            seq,
            t_ns,
            kind,
        };
        Trace {
            events: vec![
                ev(
                    0,
                    0,
                    EventKind::Enter {
                        name: "request".into(),
                        id: 0xAB,
                        parent: 0,
                    },
                ),
                ev(
                    1,
                    1_000,
                    EventKind::Instant {
                        name: "traceparent".into(),
                        detail: "00-abc".into(),
                    },
                ),
                ev(
                    2,
                    2_000,
                    EventKind::Enter {
                        name: "work_item".into(),
                        id: 0xCD,
                        parent: 0xAB,
                    },
                ),
                ev(
                    3,
                    6_000,
                    EventKind::Exit {
                        name: "work_item".into(),
                        id: 0xCD,
                    },
                ),
                ev(
                    4,
                    10_000,
                    EventKind::Exit {
                        name: "request".into(),
                        id: 0xAB,
                    },
                ),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn ndjson_round_trips_through_the_parser() {
        let trace = sample_trace();
        let (events, dropped) = parse_trace(&trace.to_ndjson()).unwrap();
        assert_eq!(events, trace.events);
        assert_eq!(dropped, 0);
        // a dropped marker survives the round trip as a count
        let truncated = Trace {
            events: trace.events.clone(),
            dropped: 3,
        };
        let (_, dropped) = parse_trace(&truncated.to_ndjson()).unwrap();
        assert_eq!(dropped, 3);
    }

    #[test]
    fn flame_report_renders_phases_and_folded_stacks() {
        let path = temp("flame.ndjson");
        let folded = temp("flame.folded");
        std::fs::write(&path, sample_trace().to_ndjson()).unwrap();
        let out = run_report(
            &args_from([
                "report",
                "flame",
                "--trace",
                path.to_str().unwrap(),
                "--folded-out",
                folded.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("5 event(s), 2 span(s), 1 instant(s)"), "{out}");
        // request total 10µs = 0.010 ms, self 6µs; work_item total/self 4µs
        assert!(out.contains("request           1   0.010"), "{out}");
        assert!(out.contains("work_item         1   0.004"), "{out}");
        assert!(out.contains("request 6\n"), "{out}");
        assert!(out.contains("request;work_item 4\n"), "{out}");
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        assert_eq!(folded_text, "request 6\nrequest;work_item 4\n");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&folded).ok();
    }

    /// A synthetic request log: two ok requests (one slow), one shed.
    fn sample_request_log() -> String {
        use cqc_obs::{Outcome, WideEvent};
        let ev =
            |seq, t_ns, class: &str, outcome, status, queue_ns, handle_ns, trace: &str| WideEvent {
                seq,
                t_ns,
                protocol: "http",
                endpoint: "count",
                class: class.to_string(),
                outcome,
                status,
                queue_ns,
                handle_ns,
                prepare_ns: handle_ns / 4,
                evaluate_ns: handle_ns / 2,
                bytes: 64,
                slot: 1,
                gen: 1,
                conn_req: seq + 1,
                trace: trace.to_string(),
            };
        let mut text = String::new();
        for e in [
            ev(0, 0, "Cq", Outcome::Ok, 200, 50_000, 2_000_000, ""),
            ev(
                1,
                500_000_000,
                "Dcq",
                Outcome::Ok,
                200,
                100_000,
                9_000_000,
                "00-abc",
            ),
            ev(2, 2_100_000_000, "", Outcome::Shed, 503, 0, 0, ""),
        ] {
            text.push_str(&e.to_json_line());
            text.push('\n');
        }
        text.push_str("{\"type\":\"dropped\",\"count\":4}\n");
        text
    }

    #[test]
    fn requests_report_ranks_classes_and_sheds() {
        let path = temp("requests.ndjson");
        std::fs::write(&path, sample_request_log()).unwrap();
        let out = run_report(
            &args_from([
                "report",
                "requests",
                "--log",
                path.to_str().unwrap(),
                "--top",
                "2",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(
            out.contains("3 wide event(s) (ok 2, error 0, shed 1, panic 0)"),
            "{out}"
        );
        assert!(out.contains("4 older event(s) dropped"), "{out}");
        // the slow Dcq request ranks first and carries its trace id
        let slow_at = out.find("Dcq [00-abc]").expect("slow request listed");
        let fast_at = out.find("\n0        http").expect("fast request listed");
        assert!(slow_at < fast_at, "{out}");
        // per-class table has one row per class, "-" for the shed's empty class
        assert!(out.contains("per-class handle latency"), "{out}");
        assert!(out.contains("Cq"), "{out}");
        assert!(out.contains("-    "), "{out}");
        // the shed landed 2.1 s after the first event
        assert!(out.contains("t+2   s : 1 shed"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn requests_report_rejects_wide_free_files() {
        let path = temp("requests-empty.ndjson");
        std::fs::write(&path, "{\"type\":\"dropped\",\"count\":1}\n").unwrap();
        let err = run_report(
            &args_from(["report", "requests", "--log", path.to_str().unwrap()]).unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("no wide events"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_reports_are_usage_errors() {
        for bad in [
            vec!["report"],
            vec!["report", "icicle"],
            vec!["report", "bench"],
        ] {
            let err = run_report(&args_from(bad.clone()).unwrap()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} -> {err}");
        }
        // malformed trace lines are data errors, not panics
        let path = temp("bad.ndjson");
        std::fs::write(&path, "{\"type\":\"enter\"}\n").unwrap();
        let err =
            run_report(&args_from(["report", "flame", "--trace", path.to_str().unwrap()]).unwrap())
                .unwrap_err();
        assert!(err.to_string().contains("trace line 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
