//! cmt-serve — the memoizing optimization service.
//!
//! A long-running, multi-threaded compile server for loop-nest IR:
//! requests arrive as newline-delimited JSON (over TCP or the
//! in-process [`Server::handle_line`] client), warm requests answer
//! from a memo cache keyed by the canonical program, and cold requests
//! run through the supervised optimization pipeline with a per-request
//! deadline.
//!
//! The robustness story is graceful degradation under pressure, not
//! peak throughput:
//!
//! * **bounded admission** — a fixed-capacity queue; past the
//!   high-water mark clients get an explicit `overloaded` reply
//!   instead of unbounded queueing;
//! * **degradation ladder** — `cached` → `simulated` → `analytic` →
//!   `overloaded`; under load or a spent deadline the cold path trades
//!   measured simulation for the analytic miss model, and every reply
//!   says which rung it used (`fidelity`);
//! * **panic containment** — each request runs under `catch_unwind`; a
//!   poisoned request is quarantined with a reproducer and answered
//!   with a structured error, never taking down the server;
//! * **exact, deterministic memoization** — a hit compares canonical
//!   source, problem size and fault seed in full, never a hash alone;
//!   only full-fidelity answers are kept; single-flight admission makes
//!   memo hit/miss counters a function of the request stream alone,
//!   identical across `CMT_JOBS` settings;
//! * **clean drain** — shutdown stops admission, finishes in-flight
//!   requests, and flushes `server.*` observability artifacts.
//!
//! Protocol and tuning knobs are documented in `docs/SERVICE.md`.
//!
//! ```
//! use cmt_serve::{Server, ServeConfig};
//!
//! let server = Server::start(ServeConfig::default());
//! let req = r#"{"id":1,"program":"PROGRAM p\nPARAM N\nREAL A(N)\nDO I = 1, N\n  A(I) = 0.0","n":8}"#;
//! let reply = server.handle_line(req);
//! assert!(reply.contains("\"status\":\"ok\""));
//! let again = server.handle_line(req);
//! assert!(again.contains("\"fidelity\":\"cached\""));
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod answer;
pub mod memo;
pub mod protocol;
pub mod server;

pub use answer::{analytic_fold, compute_cold, simulate, ColdOutcome};
pub use memo::{Canonical, Flight, FlightGuard, MemoCache, MemoKey, MemoStats, Route};
pub use protocol::{
    error_response, ok_response, overloaded_response, Answer, CompileRequest, Fidelity, Request,
    MAX_LINE_BYTES,
};
pub use server::{ServeConfig, Server};
