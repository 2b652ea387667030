//! The eviction-bounded memo cache: an exact front, then the memo
//! proper, with single-flight admission.
//!
//! A compile request reaches its answer in two lookups, both exact:
//!
//! 1. **The front** maps the request's program text, compared in full,
//!    to its [`Canonical`] form: the canonical source
//!    ([`cmt_ir::canon::canonical_source`]) and that source's
//!    [`NestKey`]. It caches a pure function of the text, so an entry is
//!    never stale, and a repeated text skips parsing and
//!    canonicalization. Only texts that parsed enter it.
//! 2. **The memo** maps a [`MemoKey`] — canonical source, problem size
//!    and fault seed, compared in full — to an answer. Alpha-renamed,
//!    re-serialized and declaration-shuffled programs share one
//!    canonical source and so one entry. The [`NestKey`] hash is only
//!    the reply's `key` field; it never decides a hit.
//!
//! Admission is **single-flight**: for any cold key, exactly one worker
//! computes while duplicates wait on the in-flight slot and are
//! answered from its published result. That is what makes hit/miss
//! totals a function of the request stream alone — never of worker
//! count or scheduling — which the determinism tests pin across
//! `CMT_JOBS` {1,4}. The front changes how a request reaches the memo,
//! not how it is routed, so it moves none of these counters.
//!
//! Only authoritative answers are inserted: those simulated at full
//! fidelity. An analytic answer, made under queue pressure or after a
//! spent deadline, is provisional: it reaches its flight's waiters and
//! is dropped, so the next request recomputes it. A fault-injected
//! answer is exact for its own fault seed, which is part of the key.
//!
//! Both maps are LRU-bounded to `capacity` entries each on one clock,
//! and together to [`MAX_KEY_BYTES`] of held key text. Hits, misses,
//! insertions, and memo evictions are counted and exported both as
//! `server.*` counters and in the `stats` op reply.

use crate::protocol::{Answer, Fidelity, MAX_LINE_BYTES};
use cmt_ir::canon::NestKey;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};

/// Cap on the key bytes one cache holds: every front entry's program
/// text and canonical source plus every memo entry's canonical source.
/// A source shared by both maps counts once per holder, so the cap
/// bounds the memory from above. Past it the older of the two LRU heads
/// is evicted.
pub const MAX_KEY_BYTES: usize = 64 * MAX_LINE_BYTES;

/// A program's canonical form, what the front remembers per text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Canonical {
    /// The canonical source, shared by the front and the memo keys.
    pub source: Arc<str>,
    /// The structural hash of `source`, the reply's `key`.
    pub key: NestKey,
}

impl Canonical {
    /// The form of a rendered canonical source.
    pub fn new(source: String) -> Self {
        let key = NestKey::of_canonical(&source);
        Canonical {
            source: source.into(),
            key,
        }
    }
}

/// Memo-cache identity: canonical source × problem size × fault plan,
/// compared in full.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Canonical source of the program.
    pub canon: Arc<str>,
    /// Problem size of the answer.
    pub n: i64,
    /// The request's fault seed; a seeded fault plan is deterministic,
    /// so its answer is exact for requests with the same seed.
    pub fault_seed: Option<u64>,
}

/// Deterministic counters of one cache's lifetime, the payload of the
/// byte-identical-across-`CMT_JOBS` guarantee.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the cache or a coalesced in-flight
    /// computation.
    pub hits: u64,
    /// Lookups that started a cold computation.
    pub misses: u64,
    /// Entries inserted.
    pub inserted: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Live entries.
    pub entries: u64,
    /// Capacity bound.
    pub capacity: u64,
}

impl MemoStats {
    /// Stable one-line JSON rendering (field order fixed).
    pub fn to_json(&self) -> String {
        let mut w = cmt_obs::json::ObjectWriter::new();
        w.field_u64("hits", self.hits)
            .field_u64("misses", self.misses)
            .field_u64("inserted", self.inserted)
            .field_u64("evictions", self.evictions)
            .field_u64("entries", self.entries)
            .field_u64("capacity", self.capacity);
        w.finish()
    }
}

/// One in-flight cold computation; duplicates block on it.
#[derive(Debug, Default)]
pub struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
enum FlightState {
    #[default]
    Pending,
    Done(Answer),
    Failed(String),
}

impl Flight {
    /// Publishes the computation's outcome and wakes every waiter.
    pub fn publish(&self, result: Result<Answer, String>) {
        let mut st = lock_ok(&self.state);
        *st = match result {
            Ok(a) => FlightState::Done(a),
            Err(e) => FlightState::Failed(e),
        };
        self.cv.notify_all();
    }

    /// Blocks until the owner publishes; `Err` is the owner's failure
    /// message (the waiter reports it as its own structured error).
    pub fn wait(&self) -> Result<Answer, String> {
        let mut st = lock_ok(&self.state);
        loop {
            match &*st {
                FlightState::Done(a) => return Ok(a.clone()),
                FlightState::Failed(e) => return Err(e.clone()),
                FlightState::Pending => {
                    st = match self.cv.wait(st) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            }
        }
    }
}

/// Where a lookup routed the request.
#[derive(Debug)]
pub enum Route {
    /// Warm: answer straight from the cache.
    Hit(Answer),
    /// An identical computation is in flight; wait on it.
    Wait(Arc<Flight>),
    /// Cold and unclaimed: the caller owns the computation and must
    /// [`MemoCache::publish`] (success or failure) exactly once.
    Compute(Arc<Flight>),
}

struct Slot {
    answer: Answer,
    stamp: u64,
}

struct FrontSlot {
    canon: Canonical,
    stamp: u64,
}

/// The front, the LRU memo cache and the single-flight table, behind
/// one lock so hit/miss/coalesce decisions are atomic.
#[derive(Debug)]
pub struct MemoCache {
    inner: Mutex<Inner>,
}

struct Inner {
    capacity: usize,
    clock: u64,
    front: HashMap<Arc<str>, FrontSlot>,
    front_lru: BTreeMap<u64, Arc<str>>,
    map: HashMap<MemoKey, Slot>,
    lru: BTreeMap<u64, MemoKey>,
    /// Bytes counted against [`MAX_KEY_BYTES`].
    key_bytes: usize,
    flights: HashMap<MemoKey, Arc<Flight>>,
    stats: MemoStats,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("capacity", &self.capacity)
            .field("front", &self.front.len())
            .field("entries", &self.map.len())
            .field("key_bytes", &self.key_bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Inner {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn evict_front(&mut self) -> bool {
        let Some((_, text)) = self.front_lru.pop_first() else {
            return false;
        };
        if let Some(slot) = self.front.remove(&text) {
            self.key_bytes -= text.len() + slot.canon.source.len();
        }
        true
    }

    fn evict_memo(&mut self) -> bool {
        let Some((_, key)) = self.lru.pop_first() else {
            return false;
        };
        self.map.remove(&key);
        self.key_bytes -= key.canon.len();
        self.stats.evictions += 1;
        true
    }

    /// Evicts until each map holds at most `capacity` entries and the
    /// keys fit [`MAX_KEY_BYTES`].
    fn enforce_bounds(&mut self) {
        while self.front.len() > self.capacity && self.evict_front() {}
        while self.map.len() > self.capacity && self.evict_memo() {}
        while self.key_bytes > MAX_KEY_BYTES {
            let front_head = self.front_lru.keys().next().copied();
            let memo_head = self.lru.keys().next().copied();
            let evicted = match (front_head, memo_head) {
                (Some(f), Some(m)) if m < f => self.evict_memo(),
                (Some(_), _) => self.evict_front(),
                (None, _) => self.evict_memo(),
            };
            if !evicted {
                break;
            }
        }
    }
}

/// Whether an answer may be replayed to later requests: only full
/// fidelity is. An analytic answer depends on load or on the clock.
fn authoritative(answer: &Answer) -> bool {
    answer.computed == Fidelity::Simulated
}

impl MemoCache {
    /// An empty cache whose front and memo are each bounded to
    /// `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        MemoCache {
            inner: Mutex::new(Inner {
                capacity: capacity.max(1),
                clock: 0,
                front: HashMap::new(),
                front_lru: BTreeMap::new(),
                map: HashMap::new(),
                lru: BTreeMap::new(),
                key_bytes: 0,
                flights: HashMap::new(),
                stats: MemoStats::default(),
            }),
        }
    }

    /// The front: the canonical form remembered for exactly this
    /// program text, if any.
    pub fn front(&self, program: &str) -> Option<Canonical> {
        let mut g = lock_ok(&self.inner);
        let stamp = g.tick();
        let g = &mut *g;
        let slot = g.front.get_mut(program)?;
        let old = std::mem::replace(&mut slot.stamp, stamp);
        if let Some(text) = g.front_lru.remove(&old) {
            g.front_lru.insert(stamp, text);
        }
        Some(slot.canon.clone())
    }

    /// Enters a parsed program text and its canonical form into the
    /// front, evicting past the bounds; returns the form held for the
    /// text (another worker's, if it got there first).
    pub fn remember(&self, program: &str, canon: Canonical) -> Canonical {
        let mut g = lock_ok(&self.inner);
        if let Some(held) = g.front.get(program) {
            return held.canon.clone();
        }
        let stamp = g.tick();
        let text: Arc<str> = program.into();
        g.key_bytes += text.len() + canon.source.len();
        g.front.insert(
            Arc::clone(&text),
            FrontSlot {
                canon: canon.clone(),
                stamp,
            },
        );
        g.front_lru.insert(stamp, text);
        g.enforce_bounds();
        canon
    }

    /// Routes one request: cache hit, coalesce onto an in-flight
    /// computation, or claim the cold computation. Hit/miss counting
    /// happens here, atomically.
    pub fn route(&self, key: &MemoKey) -> Route {
        let mut g = lock_ok(&self.inner);
        let stamp = g.tick();
        let g = &mut *g;
        if let Some(slot) = g.map.get_mut(key) {
            let old = std::mem::replace(&mut slot.stamp, stamp);
            if let Some(k) = g.lru.remove(&old) {
                g.lru.insert(stamp, k);
            }
            g.stats.hits += 1;
            return Route::Hit(slot.answer.clone());
        }
        if let Some(flight) = g.flights.get(key).map(Arc::clone) {
            g.stats.hits += 1;
            return Route::Wait(flight);
        }
        g.stats.misses += 1;
        let flight = Arc::new(Flight::default());
        g.flights.insert(key.clone(), Arc::clone(&flight));
        Route::Compute(flight)
    }

    /// Completes a computation claimed via [`Route::Compute`]: inserts
    /// an authoritative answer (evicting LRU entries past the bounds),
    /// clears the in-flight slot, and wakes waiters with the outcome.
    /// Failures and analytic answers are never cached — a later request
    /// recomputes.
    pub fn publish(&self, key: &MemoKey, flight: &Arc<Flight>, result: Result<Answer, String>) {
        let mut g = lock_ok(&self.inner);
        if let Some(answer) = result.as_ref().ok().filter(|a| authoritative(a)) {
            let stamp = g.tick();
            let slot = Slot {
                answer: answer.clone(),
                stamp,
            };
            g.key_bytes += key.canon.len();
            if let Some(old) = g.map.insert(key.clone(), slot) {
                g.lru.remove(&old.stamp);
                g.key_bytes -= key.canon.len();
            }
            g.lru.insert(stamp, key.clone());
            g.stats.inserted += 1;
            g.enforce_bounds();
        }
        g.flights.remove(key);
        drop(g);
        flight.publish(result);
    }

    /// Deterministic counters snapshot.
    pub fn stats(&self) -> MemoStats {
        let g = lock_ok(&self.inner);
        let mut s = g.stats;
        s.entries = g.map.len() as u64;
        s.capacity = g.capacity as u64;
        s
    }

    /// Bytes held against [`MAX_KEY_BYTES`].
    #[cfg(test)]
    fn key_bytes(&self) -> usize {
        lock_ok(&self.inner).key_bytes
    }
}

/// Clears the in-flight slot with a failure when the owning worker
/// panics before publishing, so waiters get a structured error instead
/// of hanging. Defuse with [`FlightGuard::defuse`] after a normal
/// publish.
pub struct FlightGuard<'a> {
    cache: &'a MemoCache,
    key: MemoKey,
    flight: Arc<Flight>,
    armed: bool,
}

impl<'a> FlightGuard<'a> {
    /// Arms a guard for a claimed computation.
    pub fn new(cache: &'a MemoCache, key: MemoKey, flight: Arc<Flight>) -> Self {
        FlightGuard {
            cache,
            key,
            flight,
            armed: true,
        }
    }

    /// The computation published normally; the guard stands down.
    pub fn defuse(&mut self) {
        self.armed = false;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.publish(
                &self.key,
                &self.flight,
                Err("request computation panicked before publishing".to_string()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(tag: u64) -> Answer {
        Answer {
            key: format!("{tag:032x}"),
            n: 8,
            computed: Fidelity::Simulated,
            degraded: false,
            failures: 0,
            steps: 1,
            accesses: tag,
            misses: 0,
        }
    }

    fn canon(tag: u64) -> Canonical {
        Canonical::new(format!("canonical program {tag}"))
    }

    fn key(tag: u64) -> MemoKey {
        MemoKey {
            canon: canon(tag).source,
            n: 8,
            fault_seed: None,
        }
    }

    /// Claims `k`'s computation and publishes `a` for it.
    fn compute(c: &MemoCache, k: &MemoKey, a: Answer) {
        match c.route(k) {
            Route::Compute(f) => c.publish(k, &f, Ok(a)),
            other => panic!("expected compute, got {other:?}"),
        }
    }

    #[test]
    fn miss_then_hit_then_lru_eviction() {
        let c = MemoCache::new(2);
        for tag in 0..3u64 {
            compute(&c, &key(tag), answer(tag));
        }
        // Capacity 2: key 0 was evicted, 1 and 2 live.
        assert!(matches!(c.route(&key(2)), Route::Hit(_)));
        assert!(matches!(c.route(&key(1)), Route::Hit(_)));
        assert!(matches!(c.route(&key(0)), Route::Compute(_)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserted, s.evictions), (2, 4, 3, 1));
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        let c = MemoCache::new(2);
        for tag in 0..2u64 {
            compute(&c, &key(tag), answer(tag));
        }
        // Touch 0 so 1 is now the LRU victim.
        assert!(matches!(c.route(&key(0)), Route::Hit(_)));
        compute(&c, &key(2), answer(2));
        assert!(matches!(c.route(&key(0)), Route::Hit(_)));
        assert!(matches!(c.route(&key(1)), Route::Compute(_)));
    }

    #[test]
    fn coalesced_waiters_get_the_published_answer() {
        let c = Arc::new(MemoCache::new(8));
        let k = key(5);
        let Route::Compute(owner) = c.route(&k) else {
            panic!("expected compute");
        };
        let waiter = {
            let c = Arc::clone(&c);
            let k = k.clone();
            std::thread::spawn(move || match c.route(&k) {
                Route::Wait(f) => f.wait(),
                Route::Hit(a) => Ok(a),
                Route::Compute(_) => panic!("single-flight violated"),
            })
        };
        // Give the waiter a moment to coalesce, then publish.
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.publish(&k, &owner, Ok(answer(5)));
        let got = waiter.join().unwrap().unwrap();
        assert_eq!(got.accesses, 5);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn failed_computation_is_not_cached_and_guard_unblocks_waiters() {
        let c = MemoCache::new(8);
        let k = key(9);
        let Route::Compute(f) = c.route(&k) else {
            panic!("expected compute");
        };
        // Simulate a panicking owner: the guard fires on drop.
        drop(FlightGuard::new(&c, k.clone(), Arc::clone(&f)));
        assert!(f.wait().is_err());
        // The key is computable again (failures are not cached).
        assert!(matches!(c.route(&k), Route::Compute(_)));
    }

    #[test]
    fn analytic_answers_reach_waiters_but_are_never_inserted() {
        let c = MemoCache::new(8);
        let k = key(3);
        let Route::Compute(f) = c.route(&k) else {
            panic!("expected compute");
        };
        let provisional = Answer {
            computed: Fidelity::Analytic,
            ..answer(3)
        };
        c.publish(&k, &f, Ok(provisional.clone()));
        assert_eq!(f.wait(), Ok(provisional));
        assert!(matches!(c.route(&k), Route::Compute(_)));
        let s = c.stats();
        assert_eq!((s.misses, s.inserted, s.entries), (2, 0, 0));
    }

    #[test]
    fn forged_hash_collision_never_shares_an_answer() {
        // Two distinct canonical sources forced onto one NestKey: the
        // memo compares sources, so the second program never sees the
        // first one's answer.
        let c = MemoCache::new(8);
        let forged = NestKey([1, 2]);
        let forge = |text: &str, source: &str| {
            c.remember(
                text,
                Canonical {
                    source: source.into(),
                    key: forged,
                },
            )
        };
        let a = forge("PROGRAM a", "canonical a");
        let b = forge("PROGRAM b", "canonical b");
        assert_eq!(a.key, b.key);
        let memo_key = |canon: &Canonical| MemoKey {
            canon: Arc::clone(&canon.source),
            n: 8,
            fault_seed: None,
        };
        compute(&c, &memo_key(&a), answer(1));
        assert!(matches!(c.route(&memo_key(&b)), Route::Compute(_)));
        assert!(matches!(c.route(&memo_key(&a)), Route::Hit(_)));
    }

    #[test]
    fn n_and_fault_seed_are_part_of_the_identity() {
        let c = MemoCache::new(8);
        let faulted = MemoKey {
            fault_seed: Some(7),
            ..key(4)
        };
        compute(&c, &faulted, answer(4));
        assert!(matches!(c.route(&faulted), Route::Hit(_)));
        assert!(matches!(c.route(&key(4)), Route::Compute(_)));
        let larger = MemoKey { n: 9, ..key(4) };
        assert!(matches!(c.route(&larger), Route::Compute(_)));
    }

    #[test]
    fn front_is_exact_and_evicts_its_lru_text() {
        let c = MemoCache::new(2);
        assert_eq!(c.front("p1"), None);
        c.remember("p1", canon(1));
        c.remember("p2", canon(2));
        // A prefix or an extension of a remembered text is a miss.
        assert_eq!(c.front("p"), None);
        assert_eq!(c.front("p1 "), None);
        // Touch p1, so the third text evicts p2.
        assert_eq!(c.front("p1"), Some(canon(1)));
        c.remember("p3", canon(3));
        assert_eq!(c.front("p2"), None);
        assert_eq!(c.front("p1"), Some(canon(1)));
        assert_eq!(c.front("p3"), Some(canon(3)));
        // Front evictions are not memo evictions.
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn large_programs_keep_key_bytes_under_the_cap() {
        let c = MemoCache::new(4096);
        let text = |k: u64| format!("{k:08}{}", "x".repeat(MAX_LINE_BYTES - 64));
        for k in 0..80u64 {
            let source = format!("{k:08}{}", "y".repeat(MAX_LINE_BYTES / 4));
            let canon = c.remember(&text(k), Canonical::new(source));
            compute(
                &c,
                &MemoKey {
                    canon: canon.source,
                    n: 8,
                    fault_seed: None,
                },
                answer(k),
            );
            assert!(c.key_bytes() <= MAX_KEY_BYTES, "{} held", c.key_bytes());
        }
        // The cap evicted the oldest entries of both maps and kept the
        // newest.
        assert!(c.front(&text(79)).is_some());
        assert!(c.front(&text(0)).is_none());
        let s = c.stats();
        assert!(s.evictions > 0 && s.entries < 80, "{s:?}");
    }
}
