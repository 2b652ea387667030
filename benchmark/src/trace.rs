//! The benchmark's own span recorder.
//!
//! Spans are recorded here, around calls into the crates' public
//! functions, rather than through `cmt-obs`: a change to the program
//! under test cannot change the instrument that measures it. Spans stay
//! in memory and are written once, as Chrome trace JSON, when a traced
//! run ends.
//!
//! A layer's self time is its spans' total duration minus the duration
//! of their direct children. Spans recorded by the layer probe carry
//! `probe: true`; they are kept apart from the timed path and excluded
//! from trace coverage.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `interp.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Item or request the span worked for.
    pub item: u64,
    /// Recorded by the layer probe, not on the timed path.
    pub probe: bool,
    /// Work counters, e.g. `accesses` or `bytes`.
    pub args: Vec<(&'static str, u64)>,
}

/// Records spans for one thread. A disabled recorder runs the timed
/// closures and records nothing, so traced and untraced passes can share
/// one code path.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    tid: u64,
    item: u64,
    probe: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recording recorder for track `tid`, timing from `epoch`.
    pub fn new(epoch: Instant, tid: u64) -> Recorder {
        Recorder {
            enabled: true,
            epoch,
            tid,
            item: 0,
            probe: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new(Instant::now(), 0)
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tags the spans opened from now on with `item`.
    pub fn set_item(&mut self, item: u64) {
        self.item = item;
    }

    /// Marks the spans opened from now on as probe spans.
    pub fn set_probe(&mut self, probe: bool) {
        self.probe = probe;
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (meaningless when disabled).
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            dur_ns: 0,
            parent: self.open.last().copied(),
            item: self.item,
            probe: self.probe,
            args: Vec::new(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span `idx`, optionally renaming it (a
    /// request's class is known only from its reply).
    pub fn close(
        &mut self,
        idx: usize,
        rename: Option<&'static str>,
        args: &[(&'static str, u64)],
    ) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        let span = &mut self.spans[idx];
        span.dur_ns = now - span.start_ns;
        span.args.extend_from_slice(args);
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx, None, &[]);
        out
    }

    /// Adds an already-measured child of span `parent`: a sink that
    /// accumulates time over many calls reports it as one span, laid
    /// out from `start_ns`.
    pub fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns,
            parent: Some(parent),
            item: self.item,
            probe: self.probe,
            args: args.to_vec(),
        });
    }
}

/// Totals of all spans of one name.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    /// Spans.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations of direct children, ns.
    pub child_ns: u64,
    /// Every duration, ns, for percentiles.
    pub durs: Vec<u64>,
    /// Summed counters.
    pub args: BTreeMap<&'static str, u64>,
}

impl Agg {
    /// Self time: total minus direct children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Summed counter `key` (0 when never recorded).
    pub fn arg(&self, key: &str) -> u64 {
        self.args.get(key).copied().unwrap_or(0)
    }
}

/// Per-name totals, split into timed-path and probe spans.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Spans on the timed path.
    pub path: BTreeMap<&'static str, Agg>,
    /// Spans recorded by the layer probe.
    pub probe: BTreeMap<&'static str, Agg>,
    /// Summed durations of top-level path spans, ns.
    pub roots_ns: u64,
}

impl Ledger {
    /// Folds every span of `recs` into per-name totals.
    pub fn new(recs: &[Recorder]) -> Ledger {
        let mut ledger = Ledger::default();
        for rec in recs {
            for s in &rec.spans {
                let side = if s.probe {
                    &mut ledger.probe
                } else {
                    &mut ledger.path
                };
                let agg = side.entry(s.name).or_default();
                agg.count += 1;
                agg.total_ns += s.dur_ns;
                agg.durs.push(s.dur_ns);
                for &(k, v) in &s.args {
                    *agg.args.entry(k).or_insert(0) += v;
                }
                match s.parent {
                    Some(p) => {
                        let parent = &rec.spans[p];
                        side.entry(parent.name).or_default().child_ns += s.dur_ns;
                    }
                    None if !s.probe => ledger.roots_ns += s.dur_ns,
                    None => {}
                }
            }
        }
        ledger
    }
}

/// Renders the spans of `recs` as Chrome trace JSON (complete events,
/// microsecond timestamps, one track per recorder, probe spans on a
/// track of their own), sorted so every track's timestamps ascend.
pub fn chrome_json(recs: &[Recorder]) -> String {
    let mut events: Vec<(u64, u64, std::cmp::Reverse<u64>, String)> = Vec::new();
    for rec in recs {
        for (id, s) in rec.spans.iter().enumerate() {
            let tid = if s.probe { rec.tid + 100 } else { rec.tid };
            let mut args = format!("\"id\":{id},\"item\":{},\"probe\":{}", s.item, s.probe);
            if let Some(p) = s.parent {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            for (k, v) in &s.args {
                args.push_str(&format!(",\"{k}\":{v}"));
            }
            let ts = s.start_ns / 1000;
            let event = format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\"args\":{{{args}}}}}",
                s.name,
                s.dur_ns / 1000
            );
            events.push((tid, ts, std::cmp::Reverse(s.dur_ns), event));
        }
    }
    events.sort_by_key(|e| (e.0, e.1, e.2));
    let body: Vec<String> = events.into_iter().map(|e| e.3).collect();
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        body.join(",\n")
    )
}
