//! Behavior tests for the compile server: memoization, the degradation
//! ladder, backpressure, panic containment, drain-on-shutdown, and the
//! TCP front end.

use cmt_obs::json::{self, Value};
use cmt_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

fn source(seed: u64) -> String {
    cmt_ir::pretty::program_to_source(&cmt_verify::generate(seed))
}

fn compile_line(id: u64, program: &str, extra: &str) -> String {
    let mut w = json::ObjectWriter::new();
    w.field_u64("id", id).field_str("program", program);
    let line = w.finish();
    if extra.is_empty() {
        line
    } else {
        format!("{},{extra}}}", &line[..line.len() - 1])
    }
}

fn field<'a>(v: &'a Value, k: &str) -> &'a str {
    v.get(k).and_then(Value::as_str).unwrap_or("")
}

fn temp_obs_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cmt-serve-test-{}-{tag}", std::process::id()))
}

#[test]
fn cold_then_cached_and_stats_counters() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let line = compile_line(1, &source(3), "\"n\":8");
    let first = json::parse(&server.handle_line(&line)).expect("valid json");
    assert_eq!(field(&first, "status"), "ok");
    assert_eq!(field(&first, "fidelity"), "simulated");
    assert_eq!(first.get("id").and_then(Value::as_u64), Some(1));
    assert!(!field(&first, "key").is_empty());

    let second = json::parse(&server.handle_line(&line)).expect("valid json");
    assert_eq!(field(&second, "status"), "ok");
    assert_eq!(field(&second, "fidelity"), "cached");
    // The cached reply reproduces the original computation's numbers.
    assert_eq!(
        first.get("misses").and_then(Value::as_u64),
        second.get("misses").and_then(Value::as_u64)
    );

    let stats = json::parse(&server.handle_line(r#"{"op":"stats","id":9}"#)).expect("valid json");
    assert_eq!(field(&stats, "op"), "stats");
    let memo = stats.get("memo").expect("memo object");
    assert_eq!(memo.get("hits").and_then(Value::as_u64), Some(1));
    assert_eq!(memo.get("misses").and_then(Value::as_u64), Some(1));

    let pong = json::parse(&server.handle_line(r#"{"op":"ping"}"#)).expect("valid json");
    assert_eq!(field(&pong, "op"), "pong");
    server.shutdown();
}

#[test]
fn malformed_and_oversized_lines_get_structured_errors() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for bad in [
        "{",
        "42",
        r#"{"id":1}"#,
        r#"{"program":7}"#,
        r#"{"op":"nope"}"#,
    ] {
        let v = json::parse(&server.handle_line(bad)).expect("valid json");
        assert_eq!(field(&v, "status"), "error", "for {bad}");
    }
    let huge = format!(
        r#"{{"program":"{}"}}"#,
        "x".repeat(cmt_serve::MAX_LINE_BYTES)
    );
    let v = json::parse(&server.handle_line(&huge)).expect("valid json");
    assert_eq!(field(&v, "status"), "error");
    // A bad n and an unparseable program are structured errors too.
    let v =
        json::parse(&server.handle_line(r#"{"id":2,"program":"PROGRAM x\nDO I = 1, N","n":8}"#))
            .expect("valid json");
    assert_eq!(field(&v, "status"), "error");
    assert!(field(&v, "error").contains("parse"), "{v:?}");
    server.shutdown();
}

#[test]
fn panicking_request_is_contained_and_quarantined() {
    let dir = temp_obs_dir("panic");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        workers: 2,
        chaos_ops: true,
        obs_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let v = json::parse(&server.handle_line(r#"{"op":"panic","id":5}"#)).expect("valid json");
    assert_eq!(field(&v, "status"), "error");
    assert!(field(&v, "error").contains("panic"), "{v:?}");

    // The server keeps serving after the panic.
    let ok = json::parse(&server.handle_line(&compile_line(6, &source(4), "\"n\":8")))
        .expect("valid json");
    assert_eq!(field(&ok, "status"), "ok");
    assert_eq!(server.obs().counter_value("server.panics"), 1);

    // The poisoned request left a reproducer.
    let quarantine = dir.join("quarantine");
    let entries: Vec<_> = std::fs::read_dir(&quarantine)
        .expect("quarantine dir exists")
        .filter_map(Result::ok)
        .collect();
    assert_eq!(entries.len(), 1);
    let body = std::fs::read_to_string(entries[0].path()).expect("readable");
    assert!(body.contains(r#""op":"panic""#), "{body}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_with_explicit_backpressure() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        chaos_ops: true,
        ..ServeConfig::default()
    });
    // Occupy the single worker, then fill the single queue slot.
    let occupy = {
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.handle_line(r#"{"op":"sleep","ms":400,"id":1}"#))
    };
    std::thread::sleep(Duration::from_millis(100));
    let fill = {
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.handle_line(r#"{"op":"sleep","ms":50,"id":2}"#))
    };
    std::thread::sleep(Duration::from_millis(100));
    let v = json::parse(&server.handle_line(&compile_line(3, &source(5), ""))).expect("valid json");
    assert_eq!(field(&v, "status"), "overloaded", "{v:?}");
    assert_eq!(field(&v, "reason"), "queue full");
    assert_eq!(v.get("limit").and_then(Value::as_u64), Some(1));
    assert!(server.obs().counter_value("server.shed") >= 1);
    for h in [occupy, fill] {
        let v = json::parse(&h.join().expect("thread ok")).expect("valid json");
        assert_eq!(field(&v, "status"), "ok");
    }
    server.shutdown();
}

#[test]
fn drain_finishes_in_flight_and_refuses_new_work() {
    let server = Server::start(ServeConfig {
        workers: 1,
        chaos_ops: true,
        ..ServeConfig::default()
    });
    let in_flight = {
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.handle_line(r#"{"op":"sleep","ms":300,"id":1}"#))
    };
    std::thread::sleep(Duration::from_millis(100));
    let ack = json::parse(&server.handle_line(r#"{"op":"shutdown","id":2}"#)).expect("valid json");
    assert_eq!(field(&ack, "op"), "draining");
    assert!(!server.accepting());
    // New work is refused with a structured overload reply...
    let refused =
        json::parse(&server.handle_line(&compile_line(3, &source(6), ""))).expect("valid json");
    assert_eq!(field(&refused, "status"), "overloaded");
    assert_eq!(field(&refused, "reason"), "draining");
    // ...while the in-flight request still completes.
    let v = json::parse(&in_flight.join().expect("thread ok")).expect("valid json");
    assert_eq!(field(&v, "status"), "ok");
    server.shutdown();
}

#[test]
fn pressure_and_spent_deadlines_degrade_to_analytic() {
    // degrade_depth 0: every cold request sees pressure and takes the
    // analytic rung — deterministically.
    let server = Server::start(ServeConfig {
        workers: 1,
        degrade_depth: 0,
        ..ServeConfig::default()
    });
    let v = json::parse(&server.handle_line(&compile_line(1, &source(7), "\"n\":8")))
        .expect("valid json");
    assert_eq!(field(&v, "status"), "ok");
    assert_eq!(field(&v, "fidelity"), "analytic", "{v:?}");
    server.shutdown();

    // deadline_ms 0 is an already-expired budget: the supervised
    // pipeline degrades (rolls back) and the answer falls back to the
    // analytic rung — also deterministically.
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let v =
        json::parse(&server.handle_line(&compile_line(2, &source(7), "\"n\":8,\"deadline_ms\":0")))
            .expect("valid json");
    assert_eq!(field(&v, "status"), "ok");
    assert_eq!(field(&v, "fidelity"), "analytic", "{v:?}");
    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("steps").and_then(Value::as_u64), Some(0));
    server.shutdown();
}

#[test]
fn analytic_answers_are_not_replayed_to_unpressured_requests() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let program = source(7);
    let v =
        json::parse(&server.handle_line(&compile_line(1, &program, "\"n\":8,\"deadline_ms\":0")))
            .expect("valid json");
    assert_eq!(field(&v, "fidelity"), "analytic", "{v:?}");
    // The spent-deadline answer was provisional: the same program with
    // no deadline is computed again, at full fidelity.
    let v = json::parse(&server.handle_line(&compile_line(2, &program, "\"n\":8")))
        .expect("valid json");
    assert_eq!(field(&v, "fidelity"), "simulated", "{v:?}");
    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(false));
    let v = json::parse(&server.handle_line(&compile_line(3, &program, "\"n\":8")))
        .expect("valid json");
    assert_eq!(field(&v, "fidelity"), "cached", "{v:?}");
    server.shutdown();
}

#[test]
fn fault_injected_answers_are_not_replayed_to_clean_requests() {
    // A reply without its id and fidelity.
    let answer = |v: &Value| {
        let mut v = v.clone();
        if let Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "id" && k != "fidelity");
        }
        v
    };
    let clean = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    // Fault seed 7 rolls back one step of this program.
    let program = source(13);
    let expected =
        json::parse(&clean.handle_line(&compile_line(1, &program, "\"n\":8"))).expect("valid json");
    clean.shutdown();
    let faulted =
        json::parse(&server.handle_line(&compile_line(1, &program, "\"n\":8,\"fault_seed\":7")))
            .expect("valid json");
    assert_eq!(faulted.get("degraded").and_then(Value::as_bool), Some(true));
    assert_ne!(answer(&faulted), answer(&expected));
    let v = json::parse(&server.handle_line(&compile_line(2, &program, "\"n\":8")))
        .expect("valid json");
    assert_eq!(field(&v, "fidelity"), "simulated", "{v:?}");
    assert_eq!(answer(&v), answer(&expected));
    // The seeded answer is still exact, and cached, for its own seed.
    let again =
        json::parse(&server.handle_line(&compile_line(3, &program, "\"n\":8,\"fault_seed\":7")))
            .expect("valid json");
    assert_eq!(field(&again, "fidelity"), "cached", "{again:?}");
    assert_eq!(answer(&again), answer(&faulted));
    server.shutdown();
}

#[test]
fn memo_capacity_bound_evicts_lru() {
    let server = Server::start(ServeConfig {
        workers: 1,
        memo_capacity: 2,
        ..ServeConfig::default()
    });
    for seed in [10, 11, 12] {
        let v = json::parse(&server.handle_line(&compile_line(seed, &source(seed), "\"n\":8")))
            .expect("valid json");
        assert_eq!(field(&v, "fidelity"), "simulated");
    }
    // Seed 10 was evicted (capacity 2), so it recomputes; 12 is warm.
    let v = json::parse(&server.handle_line(&compile_line(20, &source(10), "\"n\":8")))
        .expect("valid json");
    assert_eq!(field(&v, "fidelity"), "simulated", "{v:?}");
    let v = json::parse(&server.handle_line(&compile_line(21, &source(12), "\"n\":8")))
        .expect("valid json");
    assert_eq!(field(&v, "fidelity"), "cached", "{v:?}");
    let stats = server.memo_stats();
    assert_eq!(stats.entries, 2);
    assert!(stats.evictions >= 2, "{stats:?}");
    server.shutdown();
}

#[test]
fn fault_injected_requests_still_answer_structurally() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    for seed in 0..8u64 {
        let line = compile_line(
            seed,
            &source(seed),
            &format!("\"n\":8,\"fault_seed\":{seed}"),
        );
        let v = json::parse(&server.handle_line(&line)).expect("valid json");
        let status = field(&v, "status");
        assert!(status == "ok" || status == "error", "{v:?}");
    }
    server.shutdown();
}

#[test]
fn tcp_round_trip_and_oversized_line_cutoff() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let acceptor = {
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.listen(listener))
    };

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();

    writer
        .write_all((compile_line(1, &source(9), "\"n\":8") + "\n").as_bytes())
        .expect("send");
    reader.read_line(&mut reply).expect("recv");
    let v = json::parse(reply.trim()).expect("valid json");
    assert_eq!(field(&v, "status"), "ok");
    assert_eq!(field(&v, "fidelity"), "simulated");

    // Same request over a second connection: served from the memo.
    let stream2 = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer2 = stream2.try_clone().expect("clone");
    let mut reader2 = BufReader::new(stream2);
    writer2
        .write_all((compile_line(2, &source(9), "\"n\":8") + "\n").as_bytes())
        .expect("send");
    reply.clear();
    reader2.read_line(&mut reply).expect("recv");
    let v = json::parse(reply.trim()).expect("valid json");
    assert_eq!(field(&v, "fidelity"), "cached");

    // An unterminated line past the bound gets an error reply and the
    // connection is cut — server memory stays bounded.
    let stream3 = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer3 = stream3.try_clone().expect("clone");
    let mut reader3 = BufReader::new(stream3);
    let chunk = vec![b'x'; cmt_serve::MAX_LINE_BYTES + 64];
    writer3.write_all(&chunk).expect("send");
    writer3.flush().expect("flush");
    reply.clear();
    reader3.read_line(&mut reply).expect("recv");
    let v = json::parse(reply.trim()).expect("valid json");
    assert_eq!(field(&v, "status"), "error");
    assert!(field(&v, "error").contains("too long"), "{v:?}");
    reply.clear();
    assert_eq!(reader3.read_line(&mut reply).expect("eof"), 0);

    server.begin_shutdown();
    acceptor.join().expect("acceptor ok").expect("listen ok");
    server.shutdown();
}

#[test]
fn artifact_flush_writes_server_counters() {
    let dir = temp_obs_dir("flush");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        workers: 1,
        obs_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let line = compile_line(1, &source(13), "\"n\":8");
    server.handle_line(&line);
    server.handle_line(&line);
    server.shutdown();
    server.flush_artifacts("serve").expect("flush");
    let metrics = std::fs::read_to_string(dir.join("serve.metrics.json")).expect("metrics");
    let v = json::parse(&metrics).expect("valid json");
    let counters = v.get("counters").expect("counters");
    assert_eq!(
        counters.get("server.requests").and_then(Value::as_u64),
        Some(2)
    );
    assert_eq!(
        counters.get("server.memo.hits").and_then(Value::as_u64),
        Some(1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
