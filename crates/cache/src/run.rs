//! Loop runs: a bounds-proven innermost loop handed to a simulator as
//! its affine access streams instead of one access at a time.
//!
//! Each reference of such a loop touches one address per iteration,
//! advancing by a fixed byte stride, and the references run in the same
//! order every iteration. A [`LoopRun`] describes that as its
//! [`Stream`]s plus an iteration count; [`LoopRun::expand`] produces the
//! exact packed trace the loop would have emitted.
//!
//! A simulator can do better than replay the expansion. The paper's
//! RefCost charges a reference `trip / (cls / stride)` lines because a
//! stream can only miss in an iteration where it enters a new line; for
//! a true-LRU cache the same fact is exact (see
//! [`crate::ShardedCache::access_run`]).

use crate::fast::WRITE_BIT;

/// One access stream of a [`LoopRun`]: a byte address per iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stream {
    /// Byte address of the stream's access in the run's first iteration.
    pub start: u64,
    /// Bytes the address moves per iteration (negative, zero or
    /// positive).
    pub stride: i64,
    /// Whether the access is a store.
    pub write: bool,
}

impl Stream {
    /// The stream's byte address in iteration `k`.
    #[inline]
    pub(crate) fn addr(&self, k: u64) -> u64 {
        self.start
            .wrapping_add((k as i64).wrapping_mul(self.stride) as u64)
    }

    /// The stream's access in iteration `k`, packed (see
    /// [`crate::pack_access`]).
    #[inline]
    pub(crate) fn packed(&self, k: u64) -> u64 {
        self.addr(k) | if self.write { WRITE_BIT } else { 0 }
    }
}

/// `iters` iterations of a loop body whose accesses, in execution order
/// within each iteration, are `streams`: iteration `k` touches
/// `streams[0].addr(k)`, then `streams[1].addr(k)`, and so on.
#[derive(Clone, Copy, Debug)]
pub struct LoopRun<'a> {
    /// Every access of one iteration, in execution order.
    pub streams: &'a [Stream],
    /// Iterations in the run.
    pub iters: u64,
}

impl LoopRun<'_> {
    /// Accesses in the whole run.
    pub fn accesses(&self) -> u64 {
        self.iters * self.streams.len() as u64
    }

    /// Stores in the whole run.
    pub fn stores(&self) -> u64 {
        self.iters * self.streams.iter().filter(|s| s.write).count() as u64
    }

    /// Loads in the whole run.
    pub fn loads(&self) -> u64 {
        self.accesses() - self.stores()
    }

    /// Hands the run's packed accesses to `f` in execution order, in
    /// consecutive chunks of at most `chunk` (at least one) accesses.
    pub fn expand(&self, chunk: usize, mut f: impl FnMut(&[u64])) {
        let chunk = chunk.max(1);
        let total = self.accesses().min(chunk as u64) as usize;
        if total == 0 {
            return;
        }
        let mut buf = Vec::with_capacity(total);
        for k in 0..self.iters {
            for s in self.streams {
                buf.push(s.packed(k));
                if buf.len() == chunk {
                    f(&buf);
                    buf.clear();
                }
            }
        }
        if !buf.is_empty() {
            f(&buf);
        }
    }
}

/// Iterations from one whose address is `addr` until `stride` carries
/// the stream onto another line of `1 << line_shift` bytes: at least 1,
/// and `u64::MAX` for a stream that never moves.
#[inline]
pub(crate) fn iters_to_cross(addr: u64, stride: i64, line_shift: u32) -> u64 {
    let off = addr & ((1u64 << line_shift) - 1);
    let step = stride.unsigned_abs();
    if stride > 0 {
        ((1u64 << line_shift) - off).div_ceil(step)
    } else if stride < 0 {
        off / step + 1
    } else {
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::unpack_access;

    #[test]
    fn expansion_is_iteration_major_and_chunked() {
        let streams = [
            Stream {
                start: 800,
                stride: -8,
                write: false,
            },
            Stream {
                start: 0,
                stride: 0,
                write: true,
            },
        ];
        let run = LoopRun {
            streams: &streams,
            iters: 3,
        };
        assert_eq!((run.accesses(), run.loads(), run.stores()), (6, 3, 3));
        let mut chunks = Vec::new();
        run.expand(4, |b| {
            chunks.push(b.iter().map(|&p| unpack_access(p)).collect::<Vec<_>>())
        });
        assert_eq!(
            chunks,
            vec![
                vec![(800, false), (0, true), (792, false), (0, true)],
                vec![(784, false), (0, true)],
            ]
        );
    }

    #[test]
    fn crossing_counts_match_brute_force() {
        for shift in [4u32, 5, 7] {
            for stride in [-300i64, -128, -24, -8, -1, 0, 1, 8, 24, 128, 300] {
                for addr in (4096..4096 + 300).step_by(7) {
                    let line = |k: u64| (addr as i64 + k as i64 * stride) as u64 >> shift;
                    let want = (1..1000).find(|&k| line(k) != line(0)).unwrap_or(u64::MAX);
                    assert_eq!(
                        iters_to_cross(addr, stride, shift),
                        want,
                        "addr {addr} stride {stride} shift {shift}"
                    );
                }
            }
        }
    }
}
