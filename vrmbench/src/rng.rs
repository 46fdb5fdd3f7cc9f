//! The benchmark's own seeded generator (SplitMix64), kept separate from
//! the program's generators so the input stream depends only on
//! `--seed`.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a per-purpose `salt`, so the
    /// streams a workload draws (order, program seeds, request mix)
    /// never alias each other.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Seeded orders of a workload's inputs: one shuffle of `0..n` per
/// pass, walked back to back (wrapping), so every pass runs the same
/// inputs in its own order.
pub struct Orders(Vec<Vec<usize>>);

impl Orders {
    pub fn new(rng: &mut Rng, n: usize, passes: usize) -> Orders {
        Orders(
            (0..passes)
                .map(|_| {
                    let mut order: Vec<usize> = (0..n).collect();
                    rng.shuffle(&mut order);
                    order
                })
                .collect(),
        )
    }

    /// Inputs per pass.
    pub fn pass_len(&self) -> usize {
        self.0[0].len()
    }

    /// The input run `i`-th.
    pub fn at(&self, i: usize) -> usize {
        let n = self.pass_len();
        self.0[(i / n) % self.0.len()][i % n]
    }
}

/// FNV-1a over a byte stream: the input-set digest printed as a
/// determinism anchor.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ["ab","c"] and ["a","bc"] differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_salts_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn orders_are_seeded_permutations_walked_back_to_back() {
        let o = Orders::new(&mut Rng::new(3, 0), 5, 2);
        assert_eq!(o.pass_len(), 5);
        let mut first: Vec<usize> = (0..5).map(|i| o.at(i)).collect();
        let second: Vec<usize> = (5..10).map(|i| o.at(i)).collect();
        assert_eq!((10..15).map(|i| o.at(i)).collect::<Vec<_>>(), first);
        assert_ne!(first, second);
        first.sort_unstable();
        assert_eq!(first, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Digest::default();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
