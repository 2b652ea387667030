//! Differential test of the compile server against the direct
//! pipeline: every reply, less the `id` it echoes and its `fidelity`,
//! must equal `compute_cold` (no pressure, no deadline) run on a freshly
//! parsed copy of the request's program outside any server.
//!
//! Inputs are the verify corpus and the paper kernels, each as printed,
//! alpha-renamed and with its declarations reordered: the three texts
//! share one canonical source, so the server answers the last two from
//! the memo entry the first computed. Each text goes out with fault
//! seeds none and 7, interleaved in both orders, twice each, to servers
//! with 1 and 4 workers. A memo hit that crossed fault seeds, answered
//! a text with another program's result, or replayed a provisional
//! answer shows up as a difference.

mod common;

use cmt_ir::canon::nest_key;
use cmt_ir::parse::parse_program;
use cmt_ir::pretty::program_to_source;
use cmt_obs::json::{self, Value};
use cmt_obs::CollectSink;
use cmt_serve::{
    compute_cold, error_response, ok_response, CompileRequest, Fidelity, ServeConfig, Server,
};
use common::{alpha_rename, corpus, reorder_declarations};
use std::sync::Arc;

/// Problem size of every request.
const N: i64 = 8;
const FAULT_SEEDS: [Option<u64>; 2] = [None, Some(7)];

/// One request of the sweep.
struct Shot {
    /// Index into the input texts.
    text: usize,
    fault: usize,
    line: String,
}

/// The program texts of the sweep: each program three ways.
fn texts() -> Vec<String> {
    corpus()
        .iter()
        .flat_map(|p| {
            let source = program_to_source(p);
            [
                source.clone(),
                alpha_rename(&source),
                reorder_declarations(&source),
            ]
        })
        .collect()
}

fn request(id: u64, program: &str, fault_seed: Option<u64>) -> CompileRequest {
    CompileRequest {
        id,
        program: program.to_string(),
        n: Some(N),
        deadline_ms: None,
        fault_seed,
    }
}

fn request_line(req: &CompileRequest) -> String {
    let mut w = json::ObjectWriter::new();
    w.field_u64("id", req.id)
        .field_str("program", &req.program)
        .field_u64("n", N as u64);
    if let Some(seed) = req.fault_seed {
        w.field_u64("fault_seed", seed);
    }
    w.finish()
}

/// The direct pipeline's reply to `program` under `fault_seed`, as a
/// server would render it with id 0 at full fidelity.
fn direct(program: &str, fault_seed: Option<u64>) -> String {
    let req = request(0, program, fault_seed);
    let parsed = parse_program(program).expect("corpus texts parse");
    let mut sink = CollectSink::new();
    match compute_cold(&req, &parsed, nest_key(&parsed), N, 0, false, &mut sink) {
        Ok(cold) => ok_response(0, Fidelity::Simulated, &cold.answer),
        Err(e) => error_response(0, &e),
    }
}

/// A reply without its `id` and `fidelity`.
fn answer(reply: &str) -> Value {
    let mut v = json::parse(reply).expect("valid json");
    if let Value::Object(fields) = &mut v {
        fields.retain(|(k, _)| k != "id" && k != "fidelity");
    }
    v
}

/// Every text with both fault seeds, in alternating order per text,
/// each pair sent twice.
fn schedule(texts: &[String]) -> Vec<Shot> {
    let mut shots = Vec::new();
    for (text, program) in texts.iter().enumerate() {
        let order = if text % 2 == 0 { [0, 1] } else { [1, 0] };
        for fault in order.into_iter().cycle().take(4) {
            let id = shots.len() as u64;
            shots.push(Shot {
                text,
                fault,
                line: request_line(&request(id, program, FAULT_SEEDS[fault])),
            });
        }
    }
    shots
}

/// Sends the schedule with one client per worker; returns each shot's
/// reply.
fn serve(shots: &Arc<Vec<Shot>>, workers: usize) -> Vec<String> {
    let defaults = ServeConfig::default();
    // Admission depth never exceeds the queue capacity, so no request
    // sees pressure.
    let server = Server::start(ServeConfig {
        workers,
        degrade_depth: defaults.queue_capacity,
        default_deadline_ms: 0,
        ..defaults
    });
    let handles: Vec<_> = (0..workers)
        .map(|client| {
            let (server, shots) = (Arc::clone(&server), Arc::clone(shots));
            std::thread::spawn(move || {
                (client..shots.len())
                    .step_by(workers)
                    .map(|k| (k, server.handle_line(&shots[k].line)))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut replies = vec![String::new(); shots.len()];
    for h in handles {
        for (k, reply) in h.join().expect("client thread ok") {
            replies[k] = reply;
        }
    }
    let stats = server.memo_stats();
    server.shutdown();
    assert_eq!(stats.evictions, 0, "{stats:?}");
    replies
}

#[test]
fn every_reply_equals_the_direct_pipeline() {
    cmt_resilience::silence_supervised_panics();
    let texts = texts();
    let expected: Vec<[Value; 2]> = texts
        .iter()
        .map(|t| FAULT_SEEDS.map(|seed| answer(&direct(t, seed))))
        .collect();
    let shots = Arc::new(schedule(&texts));
    for workers in [1, 4] {
        let replies = serve(&shots, workers);
        for (shot, reply) in shots.iter().zip(&replies) {
            let v = json::parse(reply).expect("valid json");
            let fidelity = v.get("fidelity").and_then(Value::as_str);
            assert!(
                matches!(fidelity, None | Some("cached" | "simulated")),
                "{workers} workers: {reply}"
            );
            assert_eq!(
                answer(reply),
                expected[shot.text][shot.fault],
                "{workers} workers, fault seed {:?}, text:\n{}",
                FAULT_SEEDS[shot.fault],
                texts[shot.text]
            );
        }
    }
}
