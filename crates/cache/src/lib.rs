//! Trace-driven cache simulation.
//!
//! The paper evaluates its transformations by simulating two data caches:
//!
//! * **cache1** — the IBM RS/6000-540 cache: 64 KB, 4-way set associative,
//!   128-byte lines;
//! * **cache2** — the Intel i860 cache: 8 KB, 2-way set associative,
//!   32-byte lines.
//!
//! This crate provides one set-associative, true-LRU, write-allocate
//! simulator with a serial SIMD core ([`ShardedCache`]), per-array
//! attribution and interval miss-rate snapshots, cold-miss exclusion
//! (the paper's rates exclude cold misses), a simple cycle model for
//! execution-time estimates (Tables 1 and 3), and the seed simulator
//! ([`LegacyCache`]) kept as the independent oracle the engine is
//! tested against. A proven loop
//! can be handed to the simulator whole, as a [`LoopRun`] of affine
//! address streams, which it simulates only where a stream enters a new
//! line.
//!
//! # Example
//!
//! ```
//! use cmt_cache::{CacheConfig, ShardedCache};
//!
//! let mut c = ShardedCache::new(CacheConfig::rs6000());
//! assert!(!c.access(0, false)); // cold miss
//! assert!(c.access(8, false));  // same 128-byte line: hit
//! let s = c.stats();
//! assert_eq!(s.hits, 1);
//! assert_eq!(s.cold_misses, 1);
//! assert_eq!(s.hit_rate_excluding_cold(), 1.0);
//! ```

pub mod config;
pub mod cycle;
pub mod fast;
pub mod hierarchy;
pub mod legacy;
pub mod reuse;
pub mod run;
pub mod shard;
pub mod stats;

pub use config::CacheConfig;
pub use cycle::CycleModel;
pub use fast::{pack_access, unpack_access, WRITE_BIT};
pub use hierarchy::{Hierarchy, HierarchyLatency};
pub use legacy::LegacyCache;
pub use reuse::ReuseDistance;
pub use run::{LoopRun, Stream};
pub use shard::{IntervalSnapshot, ShardedCache};
pub use stats::CacheStats;
