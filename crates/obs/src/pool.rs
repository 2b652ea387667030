//! The deterministic parallel worker pool ([`par_map`] and friends),
//! which runs the corpus and table items in parallel. `cmt-bench`
//! re-exports everything.

use crate::trace::{TraceArg, TraceSession, TraceTrack};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for [`par_map`]: `$CMT_JOBS` when set to a positive
/// integer, otherwise the machine's available parallelism. `CMT_JOBS=1`
/// forces the fully sequential in-thread path.
pub fn cmt_jobs() -> usize {
    std::env::var("CMT_JOBS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&j| j >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// A contained worker failure from [`try_par_map`]: the item's closure
/// panicked on its first run *and* on its bounded retry on a fresh
/// worker.
#[derive(Clone, Debug)]
pub struct WorkerPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// Attempts made (always 2: initial run + one retry).
    pub attempts: u32,
    /// Panic payload of the last attempt, when it was a string.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {} ({} attempts): {}",
            self.index, self.attempts, self.message
        )
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_caught<T, R>(f: &(impl Fn(&T) -> R + Sync), item: &T) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
        .map_err(|p| panic_text(p.as_ref()))
}

/// [`par_map`] with worker-panic containment: a panic in `f` is caught
/// on the worker (which keeps draining the queue), the failed item is
/// retried **once** on a fresh worker thread, and a second failure
/// surfaces as `Err(WorkerPanic)` in that item's slot — every other
/// item still completes and keeps its byte-identical, item-ordered
/// result.
pub fn try_par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Result<R, WorkerPanic>> {
    let jobs = cmt_jobs().min(items.len().max(1));
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    if jobs <= 1 {
        for (i, item) in items.iter().enumerate() {
            *slots[i].lock().expect("result slot poisoned") = Some(run_caught(&f, item));
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = run_caught(&f, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                });
            }
        });
    }
    // Bounded retry: failed items run once more, each on a fresh worker
    // thread (a panicking closure may have been unlucky rather than
    // deterministic — and a fresh thread guarantees clean worker state).
    let failed: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            matches!(
                s.lock().expect("result slot poisoned").as_ref(),
                Some(Err(_)) | None
            )
        })
        .map(|(i, _)| i)
        .collect();
    if !failed.is_empty() {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(failed.len()) {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = failed.get(k) else { break };
                    let r = run_caught(&f, &items[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                });
            }
        });
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            match s
                .into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| Err("worker never filled the slot".to_string()))
            {
                Ok(r) => Ok(r),
                Err(message) => Err(WorkerPanic {
                    index: i,
                    attempts: 2,
                    message,
                }),
            }
        })
        .collect()
}

/// Maps `f` over `items` on [`cmt_jobs`] scoped worker threads,
/// returning results **in item order**.
///
/// Determinism guarantee: the output vector is indistinguishable from
/// `items.iter().map(f).collect()` as long as `f` itself is a pure
/// function of its item — workers pull items off a shared queue, but
/// every result is written back to its item's slot, so ordering (and
/// everything derived from it: rendered tables, remark streams, JSON
/// artifacts) is byte-identical for any `CMT_JOBS` value. Simulations
/// are independent per item (each builds its own `Machine` and caches),
/// which is what makes the corpus embarrassingly parallel.
///
/// Uses only `std::thread::scope` — no thread-pool dependency. Built on
/// [`try_par_map`], so a panic in `f` no longer kills sibling workers:
/// the item is retried once on a fresh worker, and only a repeat
/// failure panics the caller — deterministically, on the first failed
/// item in **item order** (not completion order).
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    try_par_map(items, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("par_map: {e}"),
        })
        .collect()
}

/// [`par_map`] with self-profiling: each worker records onto its own
/// [`TraceTrack`] (`worker-0` … `worker-{jobs-1}`), absorbed into
/// `session` in worker order, so a Perfetto view of the run shows
/// exactly how `CMT_JOBS` spreads the corpus. Every item is wrapped in
/// a `par_map.item` complete-span carrying its index; `f` can record
/// finer-grained events through the track it receives.
///
/// Results keep the [`par_map`] determinism guarantee (item-order
/// output); only the trace's timestamps and item-to-worker assignment
/// vary run to run.
///
/// Panic containment matches [`par_map`]: a panicking item is retried
/// once on a fresh `worker-retry` thread/track, and only a repeat
/// failure panics the caller (first failed item in item order).
pub fn par_map_traced<T: Sync, R: Send>(
    items: &[T],
    session: &mut TraceSession,
    f: impl Fn(&T, &mut TraceTrack) -> R + Sync,
) -> Vec<R> {
    try_par_map_traced(items, session, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("par_map_traced: {e}"),
        })
        .collect()
}

/// [`par_map_traced`] with worker-panic containment — the traced
/// counterpart of [`try_par_map`]. Worker threads survive a panicking
/// item (the panic is caught, the worker keeps draining the queue, and
/// its trace track stays intact); failed items are retried once on a
/// fresh `worker-retry` thread with its own track; a second failure
/// surfaces as `Err(WorkerPanic)` in the item's slot.
pub fn try_par_map_traced<T: Sync, R: Send>(
    items: &[T],
    session: &mut TraceSession,
    f: impl Fn(&T, &mut TraceTrack) -> R + Sync,
) -> Vec<Result<R, WorkerPanic>> {
    let jobs = cmt_jobs().min(items.len().max(1));
    let run_one = |i: usize, item: &T, track: &mut TraceTrack| -> Result<R, String> {
        let t0 = track.start();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item, track)))
            .map_err(|p| panic_text(p.as_ref()));
        track.complete_since(t0, "par_map.item", &[("index", TraceArg::U64(i as u64))]);
        r
    };
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    if jobs <= 1 {
        let mut track = session.track("worker-0");
        for (i, item) in items.iter().enumerate() {
            *slots[i].lock().expect("result slot poisoned") = Some(run_one(i, item, &mut track));
        }
        track.normalize();
        session.absorb(track);
    } else {
        let next = AtomicUsize::new(0);
        let tracks: Vec<TraceTrack> = (0..jobs)
            .map(|w| session.track(&format!("worker-{w}")))
            .collect();
        let done: Vec<TraceTrack> = std::thread::scope(|scope| {
            let (next, slots, run_one) = (&next, &slots, &run_one);
            let handles: Vec<_> = tracks
                .into_iter()
                .map(|mut track| {
                    scope.spawn(move || {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            let r = run_one(i, item, &mut track);
                            *slots[i].lock().expect("result slot poisoned") = Some(r);
                        }
                        track
                    })
                })
                .collect();
            // Workers contain every panic in `f`, so joins cannot fail;
            // if one somehow does, its track is lost but the run (and
            // the other workers' tracks) survive.
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        });
        for mut track in done {
            track.normalize();
            session.absorb(track);
        }
    }
    // Bounded retry on a fresh worker thread with its own track.
    let failed: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            matches!(
                s.lock().expect("result slot poisoned").as_ref(),
                Some(Err(_)) | None
            )
        })
        .map(|(i, _)| i)
        .collect();
    if !failed.is_empty() {
        let mut retry_track = session.track("worker-retry");
        let retry_done: TraceTrack = std::thread::scope(|scope| {
            let (slots, run_one) = (&slots, &run_one);
            let handle = scope.spawn(move || {
                for &i in &failed {
                    let r = run_one(i, &items[i], &mut retry_track);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                }
                retry_track
            });
            handle.join().ok()
        })
        .unwrap_or_else(|| session.track("worker-retry-lost"));
        let mut retry_done = retry_done;
        retry_done.normalize();
        session.absorb(retry_done);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            match s
                .into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| Err("worker never filled the slot".to_string()))
            {
                Ok(r) => Ok(r),
                Err(message) => Err(WorkerPanic {
                    index: i,
                    attempts: 2,
                    message,
                }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn try_par_map_contains_a_persistent_panic() {
        let items: Vec<usize> = (0..20).collect();
        let out = try_par_map(&items, |&i| {
            if i == 13 {
                panic!("boom on {i}");
            }
            i * 2
        });
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                let e = r.as_ref().expect_err("item 13 must fail");
                assert_eq!(e.index, 13);
                assert_eq!(e.attempts, 2);
                assert!(e.message.contains("boom on 13"), "{}", e.message);
            } else {
                assert_eq!(*r.as_ref().expect("other items succeed"), i * 2);
            }
        }
    }

    #[test]
    fn try_par_map_retries_a_flaky_item_once() {
        let attempts = AtomicU32::new(0);
        let items: Vec<usize> = (0..8).collect();
        let out = try_par_map(&items, |&i| {
            if i == 5 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flaky");
            }
            i + 100
        });
        // The first attempt panicked; the bounded retry succeeded.
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        let vals: Vec<usize> = out
            .into_iter()
            .map(|r| r.expect("retry recovers"))
            .collect();
        assert_eq!(vals, (100..108).collect::<Vec<_>>());
    }

    #[test]
    fn try_par_map_results_stay_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = try_par_map(&items, |&i| i * i);
        let vals: Vec<u64> = out.into_iter().map(|r| r.expect("no faults")).collect();
        assert_eq!(vals, items.iter().map(|&i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_traced_contains_and_retries_panics() {
        let mut session = TraceSession::new();
        let items: Vec<usize> = (0..16).collect();
        let out = try_par_map_traced(&items, &mut session, |&i, track| {
            track.instant("visit");
            if i == 3 {
                panic!("traced boom");
            }
            i
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                assert!(r.is_err());
            } else {
                assert_eq!(*r.as_ref().expect("ok"), i);
            }
        }
        // The surviving workers' tracks (and the retry track) were
        // absorbed and still form a valid trace.
        session.validate().expect("trace stays well-formed");
        let json = session.to_chrome_json();
        assert!(json.contains("worker-retry"), "retry track is recorded");
    }
}
