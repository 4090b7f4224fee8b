//! Algorithm 1 (sampling-vector construction), its fault-tolerant fill
//! (eq. 6) and the quantitative extension (Definition 10).
//!
//! The kernel never looks at a pair on its own. For each instant it sorts
//! the nodes that responded by RSS and groups equal readings; every node
//! then ORs in the set of nodes it beat, lost to and tied with. A pair's
//! basic value is a test on those bitsets, and row `i` of the vector
//! (pairs `(i, j > i)`, contiguous in canonical order) is spliced into the
//! packed planes a word at a time.

use crate::vector::{words_for, SamplingVector};
use std::ops::Range;
use wsn_network::{pair_count, GroupSampling};

/// The order evidence of one grouping sampling over a set of columns,
/// as per-node bitsets over the column positions `0..m`. `W` is the word
/// count of one bitset when known at compile time (`1` for up to 64
/// columns, the common case), `0` for any width.
struct OrderSets<const W: usize> {
    /// Columns read.
    m: usize,
    /// Words per node bitset (`W` when nonzero).
    w: usize,
    /// Instants read.
    k: usize,
    /// Words `0..w`: the nodes with at least one reading (eq. 6's `N_r`).
    /// Then per node `p` a block of `3w` words at `w + 3w·p`: the nodes
    /// `p` out-read at some instant (`rss_p > rss_q`), the nodes that
    /// out-read `p` at some instant, and the nodes that read exactly as
    /// `p` at some instant (`p` itself included).
    sets: Vec<u64>,
    /// Extended vectors only: `keys[p·k + t]` is node `p`'s
    /// [`order_key`] at instant `t`, `0` without a reading.
    keys: Vec<u64>,
}

/// A finite reading as a nonzero key whose unsigned order is the
/// reading's order and whose equality is the reading's `==` (`-0.0` keys
/// as `+0.0`) — what `Rss`'s `<`/`>` see.
#[inline]
fn order_key(dbm: f64) -> u64 {
    let bits = (dbm + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl<const W: usize> OrderSets<W> {
    /// Words per node bitset.
    #[inline(always)]
    fn w(&self) -> usize {
        if W > 0 {
            W
        } else {
            self.w
        }
    }

    /// Gathers the order sets of `instants`, over the grouping's columns
    /// `cols` (every column when `None`); `keyed` keeps the keys the
    /// extended values count with.
    fn gather(
        group: &GroupSampling,
        cols: Option<&[u32]>,
        instants: Range<usize>,
        keyed: bool,
    ) -> Self {
        let m = cols.map_or(group.node_count(), <[u32]>::len);
        let k = instants.len();
        let w = if W > 0 { W } else { m.div_ceil(64) };
        debug_assert!(m.div_ceil(64) <= w);
        let mut sets = vec![0u64; w * (1 + 3 * m)];
        let mut keys = if keyed { vec![0; m * k] } else { Vec::new() };
        let mut order: Vec<(u64, u32)> = Vec::with_capacity(m);
        // Per instant: the nodes heard, below the current group of equal
        // readings, in it, and above it.
        let mut scratch = vec![0u64; 4 * w];
        for (ti, t) in instants.enumerate() {
            let row = group.row(t);
            let key_of = |p: usize| {
                let c = cols.map_or(p, |cols| cols[p] as usize);
                row[c].map(|r| order_key(r.dbm()))
            };
            let (present, rest) = scratch.split_at_mut(w);
            let (below, rest) = rest.split_at_mut(w);
            let (members, above) = rest.split_at_mut(w);
            order.clear();
            order.extend((0..m).filter_map(|p| key_of(p).map(|key| (key, p as u32))));
            order.sort_unstable_by_key(|e| e.0);
            present.fill(0);
            below.fill(0);
            for &(key, p) in &order {
                set_bit(present, p as usize);
                if keyed {
                    keys[p as usize * k + ti] = key;
                }
            }
            or_into(&mut sets[..w], present);
            let mut start = 0;
            while start < order.len() {
                let key = order[start].0;
                let len = order[start..].iter().take_while(|e| e.0 == key).count();
                let equal = &order[start..start + len];
                start += len;
                members.fill(0);
                for &(_, p) in equal {
                    set_bit(members, p as usize);
                }
                for x in 0..w {
                    above[x] = present[x] & !(below[x] | members[x]);
                }
                for &(_, p) in equal {
                    let base = w + 3 * w * p as usize;
                    let (beat, rest) = sets[base..base + 3 * w].split_at_mut(w);
                    let (lost, tied) = rest.split_at_mut(w);
                    or_into(beat, below);
                    or_into(lost, above);
                    or_into(tied, members);
                }
                or_into(below, members);
            }
        }
        Self {
            m,
            w,
            k,
            sets,
            keys,
        }
    }

    /// The nodes with at least one reading.
    #[inline]
    fn heard(&self) -> &[u64] {
        &self.sets[..self.w()]
    }

    /// Word `x` of node `p`'s beat, lost and tied sets.
    #[inline]
    fn sets(&self, p: usize, x: usize) -> (u64, u64, u64) {
        let w = self.w();
        let i = w + 3 * w * p + x;
        (self.sets[i], self.sets[i + w], self.sets[i + 2 * w])
    }

    /// Eq. 6 and Definition 4 as bit tests, one row of pairs at a time:
    /// the ternary planes of the basic vector.
    ///
    /// Responded `i`: `+1` toward `j` when `i` beat `j` and never lost or
    /// tied (or `j` is silent), `−1` when `i` only lost; any other mix —
    /// or no common instant — is `0`. Silent `i`: `−1` toward a responded
    /// `j`, `*` toward a silent one.
    fn planes(&self) -> [Vec<u64>; 3] {
        let (m, w) = (self.m, self.w());
        let words = words_for(pair_count(m));
        let [mut plus, mut minus, mut present] = [0; 3].map(|_| vec![0u64; words]);
        let mut row = vec![0u64; 2 * w];
        let heard = self.heard();
        let mut at = 0;
        for p in 0..m - 1 {
            let len = m - 1 - p;
            if bit(heard, p) {
                let (rp, rm) = row.split_at_mut(w);
                for x in 0..w {
                    let (b, l, t) = self.sets(p, x);
                    rp[x] = (b & !l & !t) | !heard[x];
                    rm[x] = l & !b & !t;
                }
                splice(&mut plus, at, rp, p + 1, len);
                splice(&mut minus, at, rm, p + 1, len);
                fill(&mut present, at, len);
            } else {
                splice(&mut present, at, heard, p + 1, len);
                splice(&mut minus, at, heard, p + 1, len);
            }
            at += len;
        }
        [plus, minus, present]
    }

    /// `(sequential, reverse, common)` instants of the pair `(p, q)`.
    fn counts(&self, p: usize, q: usize) -> (usize, usize, usize) {
        let k = self.k;
        let (a, b) = (
            &self.keys[p * k..(p + 1) * k],
            &self.keys[q * k..(q + 1) * k],
        );
        let (mut seq, mut rev, mut common) = (0, 0, 0);
        for (&a, &b) in a.iter().zip(b) {
            let both = a != 0 && b != 0;
            common += usize::from(both);
            seq += usize::from(both && a > b);
            rev += usize::from(both && a < b);
        }
        (seq, rev, common)
    }

    /// The basic (ternary) vector.
    fn basic(&self) -> SamplingVector {
        let [plus, minus, present] = self.planes();
        SamplingVector::from_planes(pair_count(self.m), plus, minus, present)
    }

    /// The extended vector (Definition 10): the basic planes, except that
    /// a pair whose order both held and flipped (set in two of beat, lost,
    /// tied) takes `(N_seq − N_rev) / N_common`. Such a value is never
    /// `±1` and is `0` exactly when `N_seq = N_rev`; without a fractional
    /// pair the vector is ternary and equals the basic one.
    fn extended(&self) -> SamplingVector {
        let (m, w) = (self.m, self.w());
        let dim = pair_count(m);
        let [plus, minus, present] = self.planes();
        // The value row, unpacked from the planes on the first fractional
        // pair.
        let mut row: Option<(Vec<f64>, Vec<f64>)> = None;
        let mut at = 0;
        for p in 0..m - 1 {
            for x in 0..w {
                let (b, l, t) = self.sets(p, x);
                let mut mixed = ((b & l) | (b & t) | (l & t)) & above_mask(p, x);
                while mixed != 0 {
                    let q = x * 64 + mixed.trailing_zeros() as usize;
                    mixed &= mixed - 1;
                    let (seq, rev, common) = self.counts(p, q);
                    if seq != rev {
                        let (vals, _) =
                            row.get_or_insert_with(|| unpack(dim, &plus, &minus, &present));
                        vals[at + q - p - 1] = (seq as f64 - rev as f64) / common as f64;
                    }
                }
            }
            at += m - 1 - p;
        }
        match row {
            Some((vals, mask)) => SamplingVector::from_extended(dim, vals, mask),
            None => SamplingVector::from_planes(dim, plus, minus, present),
        }
    }
}

/// A ternary vector's planes as the extended value row and mask.
fn unpack(dim: usize, plus: &[u64], minus: &[u64], present: &[u64]) -> (Vec<f64>, Vec<f64>) {
    // The bits of 1.0; −1.0 adds the sign bit. Integer work only: a
    // value is `+1`, `−1` or `+0` by its two plane bits.
    const ONE: u64 = 0x3FF0_0000_0000_0000;
    let (mut vals, mut mask) = (vec![0.0; dim], vec![0.0; dim]);
    for (x, (vals, mask)) in vals.chunks_mut(64).zip(mask.chunks_mut(64)).enumerate() {
        let (pl, mi, kn) = (plus[x], minus[x], present[x]);
        for (b, (v, k)) in vals.iter_mut().zip(mask.iter_mut()).enumerate() {
            let (p, m, n) = (pl >> b & 1, mi >> b & 1, kn >> b & 1);
            *v = f64::from_bits(((p | m) * ONE) | (m << 63));
            *k = f64::from_bits(n * ONE);
        }
    }
    (vals, mask)
}

/// Algorithm 1 over the grouping's `instants`, on its columns `cols`
/// (every column when `None`).
fn sampling_vector(
    group: &GroupSampling,
    cols: Option<&[u32]>,
    instants: Range<usize>,
    extended: bool,
) -> SamplingVector {
    let m = cols.map_or(group.node_count(), <[u32]>::len);
    assert!(m >= 2, "need at least two nodes for pair values");
    fn build<const W: usize>(
        group: &GroupSampling,
        cols: Option<&[u32]>,
        instants: Range<usize>,
        extended: bool,
    ) -> SamplingVector {
        let sets = OrderSets::<W>::gather(group, cols, instants, extended);
        if extended {
            sets.extended()
        } else {
            sets.basic()
        }
    }
    if m <= 64 {
        build::<1>(group, cols, instants, extended)
    } else {
        build::<0>(group, cols, instants, extended)
    }
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

#[inline]
fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// The bits of word `x` that stand for nodes after `p`.
#[inline]
fn above_mask(p: usize, x: usize) -> u64 {
    let lo = p + 1;
    if lo <= x * 64 {
        !0
    } else if lo >= (x + 1) * 64 {
        0
    } else {
        !0 << (lo - x * 64)
    }
}

/// The low `n ≤ 64` bits.
#[inline]
fn low_bits(n: usize) -> u64 {
    if n == 64 {
        !0
    } else {
        (1 << n) - 1
    }
}

/// ORs the `n ≤ 64` low bits of `bits` into `dst` at bit `at`.
#[inline]
fn put(dst: &mut [u64], at: usize, bits: u64, n: usize) {
    let (x, s) = (at / 64, at % 64);
    dst[x] |= bits << s;
    if s != 0 && s + n > 64 {
        dst[x + 1] |= bits >> (64 - s);
    }
}

/// ORs bits `from..from + len` of `src` into `dst` from bit `at` on.
fn splice(dst: &mut [u64], at: usize, src: &[u64], from: usize, len: usize) {
    let mut done = 0;
    while done < len {
        let n = (len - done).min(64);
        let (x, s) = ((from + done) / 64, (from + done) % 64);
        let mut bits = src[x] >> s;
        if s != 0 && x + 1 < src.len() {
            bits |= src[x + 1] << (64 - s);
        }
        put(dst, at + done, bits & low_bits(n), n);
        done += n;
    }
}

/// Sets bits `at..at + len` of `dst`.
fn fill(dst: &mut [u64], at: usize, len: usize) {
    let mut done = 0;
    while done < len {
        let n = (len - done).min(64);
        put(dst, at + done, low_bits(n), n);
        done += n;
    }
}

/// Algorithm 1 + eq. (6): the basic ternary sampling vector.
///
/// For each pair, in canonical order:
///
/// * both nodes responded and every co-observed instant agreed on the order
///   → `+1` / `−1` (Definition 4's "ordinal" cases);
/// * both responded but the order flipped (or tied, or the nodes were never
///   observed at the same instant — no consistent-order evidence either
///   way) → `0`;
/// * exactly one responded → `+1`/`−1` toward the responder (eq. 6: silent
///   nodes are treated as strictly weaker);
/// * neither responded → `*`.
///
/// ```
/// use fttt::sampling::basic_sampling_vector;
/// use wsn_network::GroupSampling;
/// use wsn_signal::Rss;
///
/// // Two nodes, two instants: node 0 louder both times ⟹ pair value +1.
/// let group = GroupSampling::from_rows(vec![
///     vec![Some(Rss::new(-50.0)), Some(Rss::new(-60.0))],
///     vec![Some(Rss::new(-51.0)), Some(Rss::new(-59.0))],
/// ]);
/// let v = basic_sampling_vector(&group);
/// assert_eq!(v.component(0), Some(1.0));
/// ```
///
/// # Panics
///
/// Panics if `group` has fewer than two node columns.
pub fn basic_sampling_vector(group: &GroupSampling) -> SamplingVector {
    basic_sampling_vector_over(group, 0..group.instants())
}

/// [`basic_sampling_vector`] of the grouping cut down to the instants
/// `instants` — over a single instant, the certain-sequence vector of
/// that instant's readings (`0` only on an exact tie).
///
/// # Panics
///
/// Panics if `group` has fewer than two node columns or `instants`
/// reaches past its last instant.
pub fn basic_sampling_vector_over(group: &GroupSampling, instants: Range<usize>) -> SamplingVector {
    sampling_vector(group, None, instants, false)
}

/// Definition 10: the extended (quantitative) sampling vector.
///
/// For a pair where both nodes responded, the value is
/// `P(sequential) − P(reverse) = (N_seq − N_rev) / N_common ∈ [−1, 1]`,
/// retaining *how lopsided* the flipping was. Missing-node cases follow
/// eq. (6) exactly as in the basic vector. Pairs with no co-observed
/// instants get `0.0`.
///
/// # Panics
///
/// Panics if `group` has fewer than two node columns.
pub fn extended_sampling_vector(group: &GroupSampling) -> SamplingVector {
    sampling_vector(group, None, 0..group.instants(), true)
}

/// The sampling vector of the grouping's columns `cols` alone (ascending
/// node indices): pair `(a, b)` of the result is the pair
/// `(cols[a], cols[b])` of the grouping. A pair's value reads only its
/// two columns, so this equals the full vector gathered down to those
/// pairs — a churned map's projection — without building the full one.
pub(crate) fn columns_sampling_vector(
    group: &GroupSampling,
    cols: &[u32],
    extended: bool,
) -> SamplingVector {
    sampling_vector(group, Some(cols), 0..group.instants(), extended)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_signal::Rss;

    /// Rows = instants, columns = nodes; entries in dBm, `None` = missing.
    fn matrix(rows: Vec<Vec<Option<f64>>>) -> GroupSampling {
        GroupSampling::from_rows(
            rows.into_iter()
                .map(|r| r.into_iter().map(|v| v.map(Rss::new)).collect())
                .collect(),
        )
    }

    /// The paper's Fig. 5 example: four nodes, six instants; node 2 loudest
    /// throughout, pair (3,4) (zero-based (2,3)) flips; everything else
    /// ordinal. Expected vector: [-1, 1, 1, 1, 1, 0].
    fn fig5() -> GroupSampling {
        matrix(vec![
            //        n1           n2           n3           n4
            vec![Some(-50.0), Some(-45.0), Some(-60.0), Some(-62.0)],
            vec![Some(-51.0), Some(-44.0), Some(-61.0), Some(-59.0)], // (3,4) flips here
            vec![Some(-49.0), Some(-46.0), Some(-58.0), Some(-63.0)],
            vec![Some(-50.5), Some(-45.5), Some(-62.0), Some(-60.0)], // and here
            vec![Some(-50.2), Some(-44.8), Some(-59.0), Some(-61.0)],
            vec![Some(-49.8), Some(-45.2), Some(-60.5), Some(-62.5)],
        ])
    }

    #[test]
    fn fig5_basic_vector() {
        let v = basic_sampling_vector(&fig5());
        // Pairs: (1,2),(1,3),(1,4),(2,3),(2,4),(3,4).
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            [
                Some(-1.0),
                Some(1.0),
                Some(1.0),
                Some(1.0),
                Some(1.0),
                Some(0.0)
            ]
        );
    }

    #[test]
    fn fig5_extended_vector() {
        let v = extended_sampling_vector(&fig5());
        // (3,4): 4 sequential, 2 reverse out of 6 ⟹ (4−2)/6 = 1/3.
        assert_eq!(v.component(5), Some(1.0 / 3.0));
        // Ordinal pairs keep ±1.
        assert_eq!(v.component(0), Some(-1.0));
        assert_eq!(v.component(1), Some(1.0));
    }

    /// The paper's Section 4.4.3 fault example: only n1 and n3 respond with
    /// rss1 > rss3. Expected: [1, 1, 1, −1, *, 1].
    #[test]
    fn fault_example_eq6() {
        let g = matrix(vec![
            vec![Some(-50.0), None, Some(-60.0), None],
            vec![Some(-51.0), None, Some(-59.0), None],
        ]);
        let v = basic_sampling_vector(&g);
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            [Some(1.0), Some(1.0), Some(1.0), Some(-1.0), None, Some(1.0)]
        );
        // The extension treats missing-node pairs identically.
        let e = extended_sampling_vector(&g);
        assert_eq!(e, v);
    }

    #[test]
    fn flipped_pair_yields_zero() {
        let g = matrix(vec![
            vec![Some(-50.0), Some(-55.0)],
            vec![Some(-56.0), Some(-51.0)],
        ]);
        assert_eq!(basic_sampling_vector(&g).component(0), Some(0.0));
        // Extended: (1 − 1)/2 = 0 as well, but for k=3 with 2:1 split it
        // differs (checked below).
        assert_eq!(extended_sampling_vector(&g).component(0), Some(0.0));
    }

    #[test]
    fn extended_keeps_flip_degree() {
        let g = matrix(vec![
            vec![Some(-50.0), Some(-55.0)],
            vec![Some(-56.0), Some(-51.0)],
            vec![Some(-50.0), Some(-57.0)],
        ]);
        assert_eq!(basic_sampling_vector(&g).component(0), Some(0.0));
        assert_eq!(extended_sampling_vector(&g).component(0), Some(1.0 / 3.0));
    }

    #[test]
    fn ties_break_ordinality() {
        let g = matrix(vec![
            vec![Some(-50.0), Some(-50.0)],
            vec![Some(-49.0), Some(-51.0)],
        ]);
        // A tie means "not all strictly greater": basic value 0.
        assert_eq!(basic_sampling_vector(&g).component(0), Some(0.0));
        // Extended: 1 sequential out of 2 common ⟹ 1/2.
        assert_eq!(extended_sampling_vector(&g).component(0), Some(0.5));
    }

    #[test]
    fn ragged_columns_with_no_overlap() {
        // Both nodes responded but never at the same instant: no order
        // evidence — value 0 for both variants.
        let g = matrix(vec![vec![Some(-50.0), None], vec![None, Some(-60.0)]]);
        assert_eq!(basic_sampling_vector(&g).component(0), Some(0.0));
        assert_eq!(extended_sampling_vector(&g).component(0), Some(0.0));
    }

    #[test]
    fn partial_overlap_uses_common_instants_only() {
        let g = matrix(vec![
            vec![Some(-50.0), Some(-60.0)],
            vec![Some(-50.0), None],
            vec![None, Some(-40.0)],
        ]);
        // Only instant 0 is common and there n1 > n2.
        assert_eq!(basic_sampling_vector(&g).component(0), Some(1.0));
        assert_eq!(extended_sampling_vector(&g).component(0), Some(1.0));
    }

    #[test]
    fn all_nodes_silent_gives_all_stars() {
        let g = GroupSampling::empty(3, 4);
        let v = basic_sampling_vector(&g);
        assert_eq!(v.unknown_count(), 3);
    }

    #[test]
    fn dimension_is_pair_count() {
        for n in 2..12 {
            let g = GroupSampling::empty(n, 2);
            assert_eq!(basic_sampling_vector(&g).len(), pair_count(n));
        }
    }

    #[test]
    fn evidence_gathering_counts() {
        let g = matrix(vec![
            vec![Some(-1.0), Some(-2.0)],
            vec![Some(-3.0), Some(-2.0)],
            vec![Some(-2.0), Some(-2.0)],
            vec![Some(-1.0), None],
        ]);
        let sets = OrderSets::<1>::gather(&g, None, 0..g.instants(), true);
        // (sequential, reverse, common): the tie is common but neither.
        assert_eq!(sets.counts(0, 1), (1, 1, 3));
        assert_eq!(sets.counts(1, 0), (1, 1, 3));
    }

    #[test]
    fn signed_zero_readings_tie() {
        let g = matrix(vec![
            vec![Some(-0.0), Some(0.0)],
            vec![Some(0.0), Some(-0.0)],
        ]);
        assert_eq!(basic_sampling_vector(&g).component(0), Some(0.0));
        assert_eq!(extended_sampling_vector(&g).component(0), Some(0.0));
        let sets = OrderSets::<1>::gather(&g, None, 0..2, true);
        assert_eq!(sets.counts(0, 1), (0, 0, 2));
    }
}
