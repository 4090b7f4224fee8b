//! Packed signature planes: branch-free `*`-aware distance kernels.
//!
//! A face signature is ternary (Definition 6), so a set of `F` signatures
//! over `P` pairs packs into two bit-planes of `⌈P/64⌉` words per face:
//! bit `i` of `plus` is set where component `i` is `+1`, bit `i` of
//! `minus` where it is `−1`, and both clear where it is `0`. A basic
//! sampling vector (Definition 4 with the `*` of eq. 6) packs the same
//! way plus a `present` mask that clears `*` pairs.
//!
//! With that layout the `*`-aware squared distance of Definitions 8/9
//! reduces to a handful of bitwise ops per 64 pairs. For a present pair
//! the component difference is one of three magnitudes:
//!
//! * opposite signs (`+1` vs `−1`) — contributes 4,
//! * exactly one of the two components nonzero — contributes 1,
//! * otherwise — contributes 0.
//!
//! so `d² = 4·popcount((vp & gm) | (vm & gp))
//!        + popcount(((vp | vm) ^ (gp | gm)) & present)`
//! summed over words. The result is an exact small integer, hence
//! bit-identical to the scalar [`difference_norm_squared`] sum (which
//! adds the same integers in f64, exactly).
//!
//! Extended vectors (Definition 10) carry arbitrary values in `[−1, 1]`,
//! so their distance is a genuine `f64` sum over a flat
//! structure-of-arrays kernel: a contiguous per-face component row and a
//! `{0.0, 1.0}` presence mask replace the `Option<f64>` branching, and
//! terms are accumulated in pair order so the result stays bit-identical
//! to the scalar reference. The chunk envelopes bound the same sum from
//! below: per pair they take the smallest term, by the same expression,
//! that any member face can contribute (see
//! [`SignaturePlanes::chunk_lower_bound`]).
//!
//! [`difference_norm_squared`]: crate::vector::difference_norm_squared

use crate::vector::sampling_vec::Repr;
use crate::vector::{hugepages, simd, SamplingVector, SignatureVector};
use std::sync::OnceLock;

/// Bit-plane arena holding the signatures of every face of a map.
///
/// Face `f`'s planes live at word range `f·W .. (f+1)·W` of [`plus`] and
/// [`minus`] (`W` = [`words_per_face`]); its raw components additionally
/// live at `f·P .. (f+1)·P` of a flat `i8` row — the one stored copy of
/// each face signature ([`SignaturePlanes::components`]).
///
/// [`plus`]: SignaturePlanes::plus
/// [`minus`]: SignaturePlanes::minus
/// [`words_per_face`]: SignaturePlanes::words_per_face
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignaturePlanes {
    dim: usize,
    words: usize,
    faces: usize,
    plus: Vec<u64>,
    minus: Vec<u64>,
    comps: Vec<i8>,
    chunks: PlaneChunks,
}

/// Coarse-to-fine chunk summaries over the face arena: the data behind
/// [`SignaturePlanes::chunk_lower_bound`] and
/// [`SignaturePlanes::super_lower_bound`].
///
/// A *chunk* is a caller-chosen group of faces and a *super-chunk* a
/// caller-chosen group of chunks (the face map groups by grid locality at
/// both granularities, so grouped faces have similar signatures). Each
/// node at either level stores five per-word envelopes over its faces'
/// planes (an [`EnvelopeArena`] block):
///
/// * `union_plus` / `union_minus` — OR of the faces' plus/minus planes
///   (bit set ⟺ *some* face has that component `+1`/`−1`),
/// * `inter_plus` / `inter_minus` — AND of the planes (bit set ⟺ *every*
///   face has it),
/// * `inter_known` — AND of `plus | minus` (bit set ⟺ *no* face has a
///   `0` there).
///
/// Together they bound each component's distance contribution from below
/// for every face of the node at once, which is what lets the indexed
/// matcher discard whole regions without scanning a single face: a cheap
/// sweep over the few super-chunk envelopes prunes most of the map, and
/// fine per-chunk bounds are only ever computed inside the survivors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PlaneChunks {
    /// Face ids grouped by chunk: chunk `c` owns
    /// `face_order[starts[c] .. starts[c+1]]`, ascending within a chunk.
    face_order: Vec<u32>,
    /// Chunk boundaries into `face_order`; `len = chunk_count + 1`, empty
    /// when no chunks are built.
    starts: Vec<u32>,
    /// Super-chunk boundaries into the *chunk* sequence: super `s` owns
    /// chunks `super_starts[s] .. super_starts[s+1]`.
    super_starts: Vec<u32>,
    /// Per-chunk envelopes, block `c` of the arena.
    env: EnvelopeArena,
    /// Per-super-chunk envelopes, block `s` of the arena.
    super_env: EnvelopeArena,
    /// Chunk-ordered copy of the face planes: the face at `face_order`
    /// position `p` stores its plus plane at `lanes[2pw .. 2pw+w]` and
    /// its minus plane at `lanes[2pw+w .. 2pw+2w]` (`w` = words). Leaf
    /// scans stream this sequentially instead of hopping through the
    /// main arena in face-id order — trading one extra copy of the
    /// planes for hardware-prefetchable candidate evaluation.
    lanes: Vec<u64>,
}

impl PlaneChunks {
    fn count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    fn super_count(&self) -> usize {
        self.super_starts.len().saturating_sub(1)
    }

    fn memory_bytes(&self) -> usize {
        (self.face_order.capacity() + self.starts.capacity() + self.super_starts.capacity())
            * std::mem::size_of::<u32>()
            + self.env.memory_bytes()
            + self.super_env.memory_bytes()
            + self.lanes.capacity() * std::mem::size_of::<u64>()
    }

    fn shrink_to_fit(&mut self) {
        self.face_order.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.super_starts.shrink_to_fit();
        self.env.shrink_to_fit();
        self.super_env.shrink_to_fit();
        self.lanes.shrink_to_fit();
    }

    /// Asks the OS (best-effort) to back the hot arenas — the lanes and
    /// both envelope levels — with transparent huge pages. At scale the
    /// lanes alone span hundreds of megabytes, and the indexed matcher's
    /// candidate sweeps are dTLB-bound on 4 KiB pages.
    fn advise_hugepages(&self) {
        hugepages::advise(&self.lanes);
        self.env.advise_hugepages();
        self.super_env.advise_hugepages();
    }

    /// The chunk-ordered `(plus, minus)` planes of the face at
    /// `face_order` position `pos`.
    #[inline]
    fn lane(&self, pos: usize, words: usize) -> (&[u64], &[u64]) {
        let base = pos * 2 * words;
        (
            &self.lanes[base..base + words],
            &self.lanes[base + words..base + 2 * words],
        )
    }
}

/// Flat storage for fixed-width envelope blocks (one block per chunk or
/// super-chunk), kept as five parallel word arrays so the bound kernels
/// stream them directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct EnvelopeArena {
    union_plus: Vec<u64>,
    inter_plus: Vec<u64>,
    union_minus: Vec<u64>,
    inter_minus: Vec<u64>,
    inter_known: Vec<u64>,
}

impl EnvelopeArena {
    /// Appends an identity envelope block of `w` words (unions empty,
    /// intersections full), returning its word base.
    fn push_block(&mut self, w: usize) -> usize {
        let base = self.union_plus.len();
        self.union_plus.resize(base + w, 0);
        self.union_minus.resize(base + w, 0);
        self.inter_plus.resize(base + w, !0);
        self.inter_minus.resize(base + w, !0);
        self.inter_known.resize(base + w, !0);
        base
    }

    /// Folds one face's planes into the block at word `base`.
    ///
    /// The envelopes are re-sliced to the face's word count up front so
    /// the fold loop carries no per-word bounds checks — this runs once
    /// per face per index level on every build *and* every churn repair.
    fn absorb(&mut self, base: usize, fp: &[u64], fm: &[u64]) {
        let w = fp.len();
        let up = &mut self.union_plus[base..base + w];
        let um = &mut self.union_minus[base..base + w];
        let ip = &mut self.inter_plus[base..base + w];
        let im = &mut self.inter_minus[base..base + w];
        let ik = &mut self.inter_known[base..base + w];
        for k in 0..w {
            up[k] |= fp[k];
            um[k] |= fm[k];
            ip[k] &= fp[k];
            im[k] &= fm[k];
            ik[k] &= fp[k] | fm[k];
        }
    }

    /// Borrows block `idx` (blocks are `words`-sized) for the kernels.
    fn block(&self, idx: usize, words: usize) -> simd::ChunkEnvelope<'_> {
        let (a, b) = (idx * words, (idx + 1) * words);
        simd::ChunkEnvelope {
            union_plus: &self.union_plus[a..b],
            inter_plus: &self.inter_plus[a..b],
            union_minus: &self.union_minus[a..b],
            inter_minus: &self.inter_minus[a..b],
            inter_known: &self.inter_known[a..b],
        }
    }

    fn memory_bytes(&self) -> usize {
        (self.union_plus.capacity()
            + self.inter_plus.capacity()
            + self.union_minus.capacity()
            + self.inter_minus.capacity()
            + self.inter_known.capacity())
            * std::mem::size_of::<u64>()
    }

    fn shrink_to_fit(&mut self) {
        self.union_plus.shrink_to_fit();
        self.inter_plus.shrink_to_fit();
        self.union_minus.shrink_to_fit();
        self.inter_minus.shrink_to_fit();
        self.inter_known.shrink_to_fit();
    }

    fn advise_hugepages(&self) {
        hugepages::advise(&self.union_plus);
        hugepages::advise(&self.inter_plus);
        hugepages::advise(&self.union_minus);
        hugepages::advise(&self.inter_minus);
        hugepages::advise(&self.inter_known);
    }
}

/// Number of 64-bit words needed for `dim` pair components.
#[inline]
pub fn words_for(dim: usize) -> usize {
    dim.div_ceil(64)
}

/// Byte-spread tables for the packed→component decode: entry `b` carries
/// `lane` in byte `j` exactly where bit `j` of `b` is set (`0x01` for the
/// plus plane, `0xFF` — `−1` as `i8` — for the minus plane).
const SPREAD_PLUS: [u64; 256] = spread_table(0x01);
const SPREAD_MINUS: [u64; 256] = spread_table(0xFF);

const fn spread_table(lane: u8) -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut w = 0u64;
        let mut j = 0;
        while j < 8 {
            if (b >> j) & 1 == 1 {
                w |= (lane as u64) << (8 * j);
            }
            j += 1;
        }
        t[b] = w;
        b += 1;
    }
    t
}

impl SignaturePlanes {
    /// Creates an empty arena for signatures of `dim` pair components.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "signature planes need at least one pair component");
        Self {
            dim,
            words: words_for(dim),
            faces: 0,
            plus: Vec::new(),
            minus: Vec::new(),
            comps: Vec::new(),
            chunks: PlaneChunks::default(),
        }
    }

    /// Reserves storage for `additional` more faces, so a build loop with
    /// a known face-count bound pays no growth reallocations.
    pub fn reserve(&mut self, additional: usize) {
        self.plus.reserve(additional * self.words);
        self.minus.reserve(additional * self.words);
        self.comps.reserve(additional * self.dim);
    }

    /// Drops excess arena capacity (the counterpart of [`reserve`] once
    /// the final face count is known).
    ///
    /// [`reserve`]: SignaturePlanes::reserve
    pub fn shrink_to_fit(&mut self) {
        self.plus.shrink_to_fit();
        self.minus.shrink_to_fit();
        self.comps.shrink_to_fit();
        self.chunks.shrink_to_fit();
    }

    /// Packs an iterator of signatures (all of dimension `dim`).
    pub fn from_signatures<'a, I>(dim: usize, signatures: I) -> Self
    where
        I: IntoIterator<Item = &'a SignatureVector>,
    {
        let mut planes = Self::new(dim);
        for sig in signatures {
            planes.push_signature(sig);
        }
        planes
    }

    /// Appends one face's signature, returning its face index.
    ///
    /// # Panics
    ///
    /// Panics if `sig.len() != self.dim()`.
    pub fn push_signature(&mut self, sig: &SignatureVector) -> usize {
        assert_eq!(sig.len(), self.dim, "signature/plane dimension mismatch");
        assert!(
            !self.has_chunks(),
            "cannot append faces after chunk summaries are built"
        );
        let base = self.plus.len();
        self.plus.resize(base + self.words, 0);
        self.minus.resize(base + self.words, 0);
        for (i, &c) in sig.components().iter().enumerate() {
            let (w, b) = (base + i / 64, i % 64);
            self.plus[w] |= u64::from(c == 1) << b;
            self.minus[w] |= u64::from(c == -1) << b;
        }
        self.comps.extend_from_slice(sig.components());
        self.faces += 1;
        self.faces - 1
    }

    /// Appends one face directly from packed words (the rasterizer path;
    /// avoids materializing a `SignatureVector`). Returns the face index.
    ///
    /// # Panics
    ///
    /// Panics if the word slices are not [`words_per_face`] long, if the
    /// two planes overlap (a component cannot be both `+1` and `−1`), or
    /// if padding bits past `dim` are set.
    ///
    /// [`words_per_face`]: SignaturePlanes::words_per_face
    pub fn push_packed(&mut self, plus: &[u64], minus: &[u64]) -> usize {
        assert_eq!(plus.len(), self.words, "plus plane has wrong word count");
        assert_eq!(minus.len(), self.words, "minus plane has wrong word count");
        assert!(
            !self.has_chunks(),
            "cannot append faces after chunk summaries are built"
        );
        let pad = self.padding_mask();
        for w in 0..self.words {
            assert_eq!(plus[w] & minus[w], 0, "overlapping signature planes");
            if w == self.words - 1 {
                assert_eq!((plus[w] | minus[w]) & pad, 0, "padding bits set");
            }
        }
        self.plus.extend_from_slice(plus);
        self.minus.extend_from_slice(minus);
        // Decode the component row eight components a step (this is on the
        // rasterizer's per-new-face path; per-element bit extraction would
        // be the build's hottest loop): spread each plane byte to eight
        // `+1` / `−1` bytes by table, then OR — the planes are disjoint
        // (asserted above), so the two spreads never collide.
        let base = self.comps.len();
        self.comps.resize(base + self.dim, 0);
        for (w, chunk) in self.comps[base..].chunks_mut(64).enumerate() {
            let (p, m) = (plus[w], minus[w]);
            for (g, group) in chunk.chunks_mut(8).enumerate() {
                let spread = SPREAD_PLUS[(p >> (8 * g)) as u8 as usize]
                    | SPREAD_MINUS[(m >> (8 * g)) as u8 as usize];
                let bytes = spread.to_le_bytes();
                // The last group of the last word may be shorter than 8.
                let take = group.len();
                for (c, &b) in group.iter_mut().zip(&bytes[..take]) {
                    *c = b as i8;
                }
            }
        }
        self.faces += 1;
        self.faces - 1
    }

    /// Appends one face from packed words **and** a pre-gathered component
    /// row — the churn-repair path, where both the planes and the
    /// components are bit-moved out of an existing arena rather than
    /// re-decoded. Returns the face index.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (word/component counts) or after chunks
    /// are built. The plane-shape invariants of
    /// [`SignaturePlanes::push_packed`] — disjoint planes, clear padding,
    /// component/plane agreement — hold *by construction* on this
    /// crate-internal path (the inputs are masked copies out of an
    /// already-validated arena), so they are debug assertions here: the
    /// churn-repair differential tests exercise them, and release repairs
    /// do not pay a validation sweep per surviving face.
    pub(crate) fn push_raw(&mut self, plus: &[u64], minus: &[u64], comps: &[i8]) -> usize {
        assert_eq!(plus.len(), self.words, "plus plane has wrong word count");
        assert_eq!(minus.len(), self.words, "minus plane has wrong word count");
        assert_eq!(comps.len(), self.dim, "component row has wrong length");
        assert!(
            !self.has_chunks(),
            "cannot append faces after chunk summaries are built"
        );
        let pad = self.padding_mask();
        debug_assert!(
            (0..self.words).all(|w| {
                plus[w] & minus[w] == 0 && (w + 1 < self.words || (plus[w] | minus[w]) & pad == 0)
            }),
            "overlapping signature planes or padding bits set"
        );
        debug_assert!(
            comps.iter().enumerate().all(|(i, &c)| {
                let (w, b) = (i / 64, i % 64);
                c == (plus[w] >> b & 1) as i8 - (minus[w] >> b & 1) as i8
            }),
            "component row disagrees with the bit planes"
        );
        self.plus.extend_from_slice(plus);
        self.minus.extend_from_slice(minus);
        self.comps.extend_from_slice(comps);
        self.faces += 1;
        self.faces - 1
    }

    /// Mask of the unused high bits of the last word per face (zero when
    /// `dim` is a multiple of 64).
    #[inline]
    fn padding_mask(&self) -> u64 {
        match self.dim % 64 {
            0 => 0,
            r => !0u64 << r,
        }
    }

    /// Number of packed faces.
    #[inline]
    pub fn face_count(&self) -> usize {
        self.faces
    }

    /// Pair-component dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per face in each bit-plane (`⌈dim/64⌉`).
    #[inline]
    pub fn words_per_face(&self) -> usize {
        self.words
    }

    /// `+1` bit-plane of face `f`.
    #[inline]
    pub fn plus(&self, f: usize) -> &[u64] {
        &self.plus[f * self.words..(f + 1) * self.words]
    }

    /// `−1` bit-plane of face `f`.
    #[inline]
    pub fn minus(&self, f: usize) -> &[u64] {
        &self.minus[f * self.words..(f + 1) * self.words]
    }

    /// Raw ternary components of face `f`: its signature (Definition 6).
    #[inline]
    pub fn components(&self, f: usize) -> &[i8] {
        &self.comps[f * self.dim..(f + 1) * self.dim]
    }

    /// Reconstructs the signature of face `f` as an owned vector.
    pub fn signature(&self, f: usize) -> SignatureVector {
        // Arena components are validated on entry (`push_signature` /
        // `push_packed` assertions), so skip per-component re-validation.
        SignatureVector::from_trusted(self.components(f).to_vec())
    }

    /// Heap bytes held by the arena, chunk summaries included.
    pub fn memory_bytes(&self) -> usize {
        (self.plus.capacity() + self.minus.capacity()) * std::mem::size_of::<u64>()
            + self.comps.capacity()
            + self.chunks.memory_bytes()
    }

    /// `*`-aware squared distance `‖V_d − V_s(f)‖²` between a packed
    /// sampling vector and face `f` (Definitions 8/9).
    ///
    /// Bit-identical to
    /// [`difference_norm_squared`](crate::vector::difference_norm_squared)
    /// on the unpacked vectors, for both ternary and extended queries.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range or the query dimension differs.
    #[inline]
    pub fn distance_squared(&self, f: usize, query: &PackedQuery) -> f64 {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        assert!(
            f < self.faces,
            "face index {f} out of range ({} faces)",
            self.faces
        );
        match &query.kind {
            QueryKind::Ternary {
                plus,
                minus,
                present,
                active,
            } => {
                // Exact integer counts, so the SIMD-dispatched kernel is
                // bit-identical to the scalar word loop regardless of how
                // lanes group the words — and the sparse gather, which
                // only skips provably-zero words, is bit-identical to
                // both.
                let base = f * self.words;
                let (gp, gm) = (
                    &self.plus[base..base + self.words],
                    &self.minus[base..base + self.words],
                );
                let d2 = match active {
                    Some(active) => simd::d2_ternary_sparse(gp, gm, plus, minus, present, active),
                    None => simd::d2_ternary(gp, gm, plus, minus, present),
                };
                d2 as f64
            }
            QueryKind::Extended { vals, mask, .. } => {
                extended_face_sum(vals, mask, self.components(f), f64::INFINITY)
            }
        }
    }

    /// Builds the two-level chunk summaries from per-face keys: face `f`
    /// belongs to chunk `(super_of[f], chunk_of[f])` and that chunk to
    /// super-chunk `super_of[f]`. Keys need not be dense — chunks are
    /// compacted in ascending `(super, chunk)` key order (so a super's
    /// chunks are contiguous), faces ascending within a chunk. Freezes
    /// the arena: no more faces can be appended afterwards.
    ///
    /// Deterministic: the same faces and assignments always produce the
    /// same summaries, so structures rebuilt from a codec round-trip
    /// compare equal.
    ///
    /// # Panics
    ///
    /// Panics if either assignment's length differs from `face_count()`
    /// or if chunks were already built.
    pub fn build_chunks(&mut self, chunk_of: &[u32], super_of: &[u32]) {
        assert_eq!(
            chunk_of.len(),
            self.faces,
            "chunk assignment must cover every face"
        );
        assert_eq!(
            super_of.len(),
            self.faces,
            "super-chunk assignment must cover every face"
        );
        assert!(!self.has_chunks(), "chunk summaries already built");
        if self.faces == 0 {
            return;
        }
        let mut order: Vec<u32> = (0..self.faces as u32).collect();
        order.sort_unstable_by_key(|&f| (super_of[f as usize], chunk_of[f as usize], f));

        let mut ch = PlaneChunks {
            face_order: order,
            ..PlaneChunks::default()
        };
        ch.starts.push(0);
        ch.super_starts.push(0);
        let w = self.words;
        let n = ch.face_order.len();
        let mut i = 0usize;
        while i < n {
            let skey = super_of[ch.face_order[i] as usize];
            let sbase = ch.super_env.push_block(w);
            while i < n && super_of[ch.face_order[i] as usize] == skey {
                let ckey = chunk_of[ch.face_order[i] as usize];
                let cbase = ch.env.push_block(w);
                while i < n
                    && super_of[ch.face_order[i] as usize] == skey
                    && chunk_of[ch.face_order[i] as usize] == ckey
                {
                    let f = ch.face_order[i] as usize;
                    let (fp, fm) = (
                        &self.plus[f * w..(f + 1) * w],
                        &self.minus[f * w..(f + 1) * w],
                    );
                    ch.env.absorb(cbase, fp, fm);
                    ch.super_env.absorb(sbase, fp, fm);
                    ch.lanes.extend_from_slice(fp);
                    ch.lanes.extend_from_slice(fm);
                    i += 1;
                }
                ch.starts.push(i as u32);
            }
            ch.super_starts.push((ch.starts.len() - 1) as u32);
        }
        ch.shrink_to_fit();
        // Addresses are final after the shrink; ask for huge-page backing
        // of everything the matcher streams per query (the chunk-ordered
        // lanes, both envelope levels, and the main plane arenas, which
        // the bound/eval kernels still touch for exhaustive fallbacks).
        ch.advise_hugepages();
        hugepages::advise(&self.plus);
        hugepages::advise(&self.minus);
        self.chunks = ch;
    }

    /// `true` once [`build_chunks`](SignaturePlanes::build_chunks) ran
    /// (and the arena holds at least one face).
    #[inline]
    pub fn has_chunks(&self) -> bool {
        !self.chunks.starts.is_empty()
    }

    /// Number of chunks (0 before
    /// [`build_chunks`](SignaturePlanes::build_chunks)).
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunks.count()
    }

    /// Face indices of chunk `c`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    pub fn chunk_faces(&self, c: usize) -> &[u32] {
        let (a, b) = (self.chunks.starts[c], self.chunks.starts[c + 1]);
        &self.chunks.face_order[a as usize..b as usize]
    }

    /// Provable lower bound on [`distance_squared`] over **every** face of
    /// chunk `c`: `chunk_lower_bound(c, q) ≤ d²(f, q)` for all `f` in the
    /// chunk. Exact (equal to the distance) when the chunk holds one face.
    ///
    /// Per component the bound takes the minimum possible contribution
    /// across the chunk, certified by the envelopes:
    ///
    /// * query `+1` — contributes ≥ 4 when every face is `−1` there
    ///   (`inter_minus`), else ≥ 1 when *no* face is `+1` (`¬union_plus`),
    ///   else 0 (symmetrically for query `−1`);
    /// * query `0` (present) — contributes ≥ 1 when no face has a `0`
    ///   there (`inter_known`);
    /// * query `*` — contributes 0.
    ///
    /// An extended query (present components `v` anywhere in `[−1, 1]`)
    /// takes, per component, the smallest of the terms some member face
    /// can contribute: `(v − 1)²` if `union_plus` is set, `(v + 1)²` if
    /// `union_minus` is set, and `v²` if `inter_known` is clear — each
    /// computed by the face kernel's own expression (so a `*` component
    /// contributes 0, as it does to every face).
    ///
    /// Summing per-component minima can only undercount any single face's
    /// distance, hence the bound. For extended queries this holds in
    /// `f64`, not just in exact arithmetic: each bound term is one of the
    /// face's candidate terms or a smaller one, the terms are added in
    /// the same pair order as the face kernel's, and rounded addition is
    /// monotone (`a ≤ a'` and `b ≤ b'` give `fl(a + b) ≤ fl(a' + b')`), so
    /// every partial sum of the bound stays at or below the face's.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range or the query dimension differs.
    ///
    /// [`distance_squared`]: SignaturePlanes::distance_squared
    pub fn chunk_lower_bound(&self, c: usize, query: &PackedQuery) -> f64 {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        assert!(
            c < self.chunk_count(),
            "chunk index {c} out of range ({} chunks)",
            self.chunk_count()
        );
        Self::envelope_bound(self.chunks.env.block(c, self.words), query)
    }

    /// Number of super-chunks (0 before
    /// [`build_chunks`](SignaturePlanes::build_chunks)).
    #[inline]
    pub fn super_count(&self) -> usize {
        self.chunks.super_count()
    }

    /// Chunk indices owned by super-chunk `s` (always contiguous — chunks
    /// are laid out grouped by super).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    pub fn super_chunks(&self, s: usize) -> std::ops::Range<usize> {
        self.chunks.super_starts[s] as usize..self.chunks.super_starts[s + 1] as usize
    }

    /// [`chunk_lower_bound`](SignaturePlanes::chunk_lower_bound) one level
    /// up: a provable lower bound on [`distance_squared`] over every face
    /// of every chunk of super-chunk `s`. The super envelope folds the
    /// same faces, so `super_lower_bound(s, q) ≤ chunk_lower_bound(c, q)`
    /// for each chunk `c` of `s` — pruning a super-chunk is exactly as
    /// sound as pruning each of its chunks, at a fraction of the sweep
    /// cost.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the query dimension differs.
    ///
    /// [`distance_squared`]: SignaturePlanes::distance_squared
    pub fn super_lower_bound(&self, s: usize, query: &PackedQuery) -> f64 {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        assert!(
            s < self.super_count(),
            "super-chunk index {s} out of range ({} super-chunks)",
            self.super_count()
        );
        Self::envelope_bound(self.chunks.super_env.block(s, self.words), query)
    }

    /// The envelope bound kernel shared by both index levels.
    fn envelope_bound(env: simd::ChunkEnvelope<'_>, query: &PackedQuery) -> f64 {
        match &query.kind {
            QueryKind::Ternary {
                plus,
                minus,
                present,
                active,
            } => {
                // Exact integer counts again, so the SIMD-dispatched bound
                // kernel and the sparse gather are bit-identical to the
                // scalar word loop.
                let lb = match active {
                    Some(active) => simd::chunk_bound_sparse(&env, plus, minus, present, active),
                    None => simd::chunk_bound(&env, plus, minus, present),
                };
                lb as f64
            }
            QueryKind::Extended {
                vals,
                mask,
                bound_terms,
            } => extended_bound(
                bound_terms.get_or_init(|| extended_bound_terms(vals, mask)),
                &env,
            ),
        }
    }

    /// [`distance_squared`](SignaturePlanes::distance_squared) with an
    /// early exit: returns `Some(d²)` — the exact, bit-identical distance
    /// — when `d² ≤ cutoff`, and `None` as soon as a partial sum proves
    /// `d² > cutoff`.
    ///
    /// Sound because both accumulations are monotone in the prefix: the
    /// ternary sum is exact integer addition of nonnegative per-word
    /// counts, and the extended sum adds nonnegative `f64` terms (round
    /// to nearest of `a + b` with `b ≥ 0` never drops below `a`). A
    /// rejected face therefore truly has `d² > cutoff` — it can neither
    /// win nor tie a best-so-far of `cutoff` — while an accepted face
    /// reports the same bits the full evaluation would.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range or the query dimension differs.
    pub fn distance_squared_within(
        &self,
        f: usize,
        query: &PackedQuery,
        cutoff: f64,
    ) -> Option<f64> {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        assert!(
            f < self.faces,
            "face index {f} out of range ({} faces)",
            self.faces
        );
        match &query.kind {
            QueryKind::Ternary { .. } => {
                let base = f * self.words;
                let (gp, gm) = (
                    &self.plus[base..base + self.words],
                    &self.minus[base..base + self.words],
                );
                Self::ternary_within(gp, gm, query, cutoff)
            }
            QueryKind::Extended { vals, mask, .. } => {
                let d = extended_face_sum(vals, mask, self.components(f), cutoff);
                (d <= cutoff).then_some(d)
            }
        }
    }

    /// [`distance_squared_within`](SignaturePlanes::distance_squared_within)
    /// for the face in *slot* `slot` of chunk `c` (its id is
    /// `chunk_faces(c)[slot]`). Ternary queries read the chunk-ordered
    /// lane copy of the planes: consecutive slots are consecutive in
    /// memory, so a leaf scan streams sequentially instead of gathering
    /// faces scattered across the main arena. Extended queries read the
    /// face's component row, which a face's planes would only re-derive
    /// bit by bit. Bit-identical to calling `distance_squared_within` on
    /// the face id.
    ///
    /// # Panics
    ///
    /// Panics if `c`/`slot` is out of range or the query dimension
    /// differs.
    pub fn chunk_slot_distance_within(
        &self,
        c: usize,
        slot: usize,
        query: &PackedQuery,
        cutoff: f64,
    ) -> Option<f64> {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        let faces = self.chunk_faces(c);
        assert!(
            slot < faces.len(),
            "slot {slot} out of range ({} faces in chunk {c})",
            faces.len()
        );
        match &query.kind {
            QueryKind::Ternary { .. } => {
                let pos = self.chunks.starts[c] as usize + slot;
                let (gp, gm) = self.chunks.lane(pos, self.words);
                Self::ternary_within(gp, gm, query, cutoff)
            }
            QueryKind::Extended { vals, mask, .. } => {
                let row = self.components(faces[slot] as usize);
                let d = extended_face_sum(vals, mask, row, cutoff);
                (d <= cutoff).then_some(d)
            }
        }
    }

    /// The early-exit ternary kernel shared by
    /// [`distance_squared_within`](SignaturePlanes::distance_squared_within)
    /// and
    /// [`chunk_slot_distance_within`](SignaturePlanes::chunk_slot_distance_within):
    /// `gp`/`gm` are the face's plus/minus planes, wherever they are
    /// stored.
    fn ternary_within(gp: &[u64], gm: &[u64], query: &PackedQuery, cutoff: f64) -> Option<f64> {
        let QueryKind::Ternary {
            plus,
            minus,
            present,
            active,
        } = &query.kind
        else {
            unreachable!("ternary_within requires a ternary query");
        };
        // Sparse queries touch so few words that the gathered sum is
        // cheaper than any partial-sum bookkeeping.
        if let Some(active) = active {
            let d = simd::d2_ternary_sparse(gp, gm, plus, minus, present, active) as f64;
            return (d <= cutoff).then_some(d);
        }
        simd::d2_ternary_within(gp, gm, plus, minus, present, cutoff).map(|d| d as f64)
    }
}

/// A sampling vector prepared for the plane kernels.
///
/// The vector already holds the packed form (bit planes for ternary
/// vectors, a value row and mask for extended ones); the query borrows
/// it and adds what only matching needs: the sparse word list of a
/// ternary query and, on the first envelope bound, an extended query's
/// bound table. Build once per localization, reuse across every face.
#[derive(Debug, Clone)]
pub struct PackedQuery<'a> {
    dim: usize,
    kind: QueryKind<'a>,
}

#[derive(Debug, Clone)]
enum QueryKind<'a> {
    Ternary {
        plus: &'a [u64],
        minus: &'a [u64],
        present: &'a [u64],
        /// Indices of the words with any present pair, kept only when the
        /// query is sparse enough (≤ ¼ of the words nonzero) that gathered
        /// scalar loops beat the dense SIMD sweep. Since `plus`/`minus` ⊆
        /// `present` and every distance/bound term is masked by a query
        /// plane, restricting any kernel to these words is exact.
        active: Option<Vec<u32>>,
    },
    Extended {
        vals: &'a [f64],
        mask: &'a [f64],
        /// Per pair, the envelope bound's term for each set of component
        /// values a chunk may hold there: entry `a` is the smallest
        /// [`extended_term`] over the values in `a` (bit 0 for `+1`, bit 1
        /// for `0`, bit 2 for `−1`; the empty set is `+∞`). Built on the
        /// first envelope bound, so the matchers that never bound a chunk
        /// (the scan, the heuristic) never pay for it.
        bound_terms: OnceLock<Vec<[f64; 8]>>,
    },
}

/// The extended kernels' one term: pair value `v` with presence mask `m`
/// against face component `s`. A masked (`*`) term is exactly `0.0`.
#[inline(always)]
fn extended_term(v: f64, m: f64, s: f64) -> f64 {
    let d = (v - s) * m;
    d * d
}

/// Pairs added between early-exit checks in [`extended_face_sum`].
const EXIT_STRIDE: usize = 32;

/// An extended query's squared distance to the face with signature row
/// `row`, accumulated strictly in pair order, so the partial sums match
/// the scalar reference bit for bit.
///
/// Stops once a partial sum exceeds `cutoff` and returns that partial
/// sum, which then also exceeds `cutoff`; otherwise returns the full sum.
/// Terms are nonnegative, so partial sums never decrease.
#[inline]
fn extended_face_sum(vals: &[f64], mask: &[f64], row: &[i8], cutoff: f64) -> f64 {
    let mut acc = 0.0f64;
    for (i, ((&v, &m), &s)) in vals.iter().zip(mask).zip(row).enumerate() {
        acc += extended_term(v, m, s as f64);
        if i % EXIT_STRIDE == EXIT_STRIDE - 1 && acc > cutoff {
            return acc;
        }
    }
    acc
}

/// The extended-query envelope lower bound: per pair the smallest term
/// some member face can contribute — `+1` only where `union_plus` is set,
/// `0` only where `inter_known` is clear, `−1` only where `union_minus` is
/// set — added in pair order, as [`extended_face_sum`] adds a face's.
fn extended_bound(bound_terms: &[[f64; 8]], env: &simd::ChunkEnvelope<'_>) -> f64 {
    let mut acc = 0.0f64;
    for (w, block) in bound_terms.chunks(64).enumerate() {
        let (plus, zero, minus) = (env.union_plus[w], !env.inter_known[w], env.union_minus[w]);
        for (b, terms) in block.iter().enumerate() {
            // The allowed set indexes its precomputed minimum: no
            // data-dependent branch (the set varies pair to pair).
            let set = (plus >> b & 1) | (zero >> b & 1) << 1 | (minus >> b & 1) << 2;
            acc += terms[set as usize];
        }
    }
    acc
}

/// The per-pair table behind [`extended_bound`]: for each pair, entry
/// `set` is the smallest [`extended_term`] over the component values in
/// `set` (see `QueryKind::Extended::bound_terms`).
fn extended_bound_terms(vals: &[f64], mask: &[f64]) -> Vec<[f64; 8]> {
    vals.iter()
        .zip(mask)
        .map(|(&v, &m)| {
            let terms = [1.0, 0.0, -1.0].map(|s| extended_term(v, m, s));
            std::array::from_fn(|set| {
                (0..3)
                    .filter(|k| set >> k & 1 == 1)
                    .map(|k| terms[k])
                    .fold(f64::INFINITY, f64::min)
            })
        })
        .collect()
}

impl<'a> PackedQuery<'a> {
    /// Prepares a sampling vector for the kernels: ternary vectors take
    /// the bit-mask fast path, extended vectors the flat value row.
    pub fn new(v: &'a SamplingVector) -> Self {
        let kind = match v.repr() {
            Repr::Ternary {
                plus,
                minus,
                present,
            } => {
                // Real sampling vectors hear one small node group, so most
                // words carry no present pair at all; record the nonzero
                // ones when they are rare enough for gathers to win.
                let nonzero: Vec<u32> = present
                    .iter()
                    .enumerate()
                    .filter(|(_, &w)| w != 0)
                    .map(|(i, _)| i as u32)
                    .collect();
                let active = (nonzero.len() * 4 <= present.len()).then_some(nonzero);
                QueryKind::Ternary {
                    plus,
                    minus,
                    present,
                    active,
                }
            }
            Repr::Extended { vals, mask } => QueryKind::Extended {
                vals,
                mask,
                bound_terms: OnceLock::new(),
            },
        };
        Self { dim: v.len(), kind }
    }

    /// Pair-component dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` when the query took the ternary bit-mask fast path.
    pub fn is_packed_ternary(&self) -> bool {
        matches!(self.kind, QueryKind::Ternary { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::difference_norm_squared;

    fn planes_of(sigs: &[SignatureVector]) -> SignaturePlanes {
        SignaturePlanes::from_signatures(sigs[0].len(), sigs.iter())
    }

    #[test]
    fn ternary_distance_matches_scalar() {
        let sigs = vec![
            SignatureVector::new(vec![1, -1, 0, 1]),
            SignatureVector::new(vec![0, 0, 1, -1]),
        ];
        let planes = planes_of(&sigs);
        let v = SamplingVector::from_ternary(vec![Some(1), None, Some(-1), Some(0)]);
        let q = PackedQuery::new(&v);
        assert!(q.is_packed_ternary());
        for (f, sig) in sigs.iter().enumerate() {
            assert_eq!(
                planes.distance_squared(f, &q),
                difference_norm_squared(&v, sig)
            );
        }
    }

    #[test]
    fn extended_distance_matches_scalar_bit_for_bit() {
        let sigs = vec![
            SignatureVector::new(vec![1, 0, -1]),
            SignatureVector::new(vec![0, 1, 1]),
        ];
        let planes = planes_of(&sigs);
        let v = SamplingVector::new(vec![Some(1.0 / 3.0), None, Some(-0.7)]);
        let q = PackedQuery::new(&v);
        assert!(!q.is_packed_ternary());
        for (f, sig) in sigs.iter().enumerate() {
            let got = planes.distance_squared(f, &q);
            let want = difference_norm_squared(&v, sig);
            assert_eq!(got.to_bits(), want.to_bits(), "face {f}");
        }
    }

    #[test]
    fn crosses_word_boundary() {
        // 130 components spans three words; exercise bits 63, 64, 128.
        let dim = 130;
        let mut comps = vec![0i8; dim];
        comps[63] = 1;
        comps[64] = -1;
        comps[128] = 1;
        let sigs = vec![SignatureVector::new(comps)];
        let planes = planes_of(&sigs);
        let mut sample: Vec<Option<i8>> = vec![Some(0); dim];
        sample[63] = Some(-1); // opposite: 4
        sample[64] = None; // star: 0
        sample[129] = Some(1); // one-sided: 1  (plus comps[128] one-sided: 1)
        let v = SamplingVector::from_ternary(sample);
        let q = PackedQuery::new(&v);
        assert_eq!(planes.distance_squared(0, &q), 6.0);
        assert_eq!(
            planes.distance_squared(0, &q),
            difference_norm_squared(&v, &sigs[0])
        );
    }

    #[test]
    fn push_packed_round_trips() {
        let sig = SignatureVector::new(vec![1, 0, -1, 1, -1]);
        let mut a = SignaturePlanes::new(5);
        a.push_signature(&sig);
        let mut b = SignaturePlanes::new(5);
        b.push_packed(a.plus(0), a.minus(0));
        assert_eq!(a, b);
        assert_eq!(b.signature(0), sig);
        assert_eq!(b.components(0), sig.components());
    }

    #[test]
    fn all_star_query_is_zero_distance_everywhere() {
        let sigs = vec![SignatureVector::new(vec![1, -1, 0])];
        let planes = planes_of(&sigs);
        let v = SamplingVector::from_ternary(vec![None, None, None]);
        let q = PackedQuery::new(&v);
        assert_eq!(planes.distance_squared(0, &q), 0.0);
    }

    #[test]
    fn chunk_lower_bound_never_exceeds_chunk_min_distance() {
        let dim = 9;
        let sigs: Vec<SignatureVector> = (0..6)
            .map(|s| SignatureVector::new((0..dim).map(|i| ((i + s) % 3) as i8 - 1).collect()))
            .collect();
        let mut planes = planes_of(&sigs);
        // Three chunks with sparse keys ({0,1} {2,3} {4,5}) under two
        // super-chunks ({0..4} and {4,5}).
        planes.build_chunks(&[7, 7, 2, 2, 40, 40], &[1, 1, 1, 1, 9, 9]);
        assert!(planes.has_chunks());
        assert_eq!(planes.chunk_count(), 3);
        // Keys compact in ascending (super, chunk) order: (1,2) first.
        assert_eq!(planes.chunk_faces(0), &[2, 3]);
        assert_eq!(planes.chunk_faces(1), &[0, 1]);
        assert_eq!(planes.chunk_faces(2), &[4, 5]);
        assert_eq!(planes.super_count(), 2);
        assert_eq!(planes.super_chunks(0), 0..2);
        assert_eq!(planes.super_chunks(1), 2..3);
        for pat in 0..64u32 {
            let v = SamplingVector::from_ternary(
                (0..dim)
                    .map(|i| match (pat >> (i % 6)) & 1 {
                        0 => Some(((i % 3) as i8) - 1),
                        _ => None,
                    })
                    .collect(),
            );
            let q = PackedQuery::new(&v);
            for c in 0..planes.chunk_count() {
                let lb = planes.chunk_lower_bound(c, &q);
                let min = planes
                    .chunk_faces(c)
                    .iter()
                    .map(|&f| planes.distance_squared(f as usize, &q))
                    .fold(f64::INFINITY, f64::min);
                assert!(lb <= min, "chunk {c}: lb {lb} > min d² {min}");
            }
            for s in 0..planes.super_count() {
                let sb = planes.super_lower_bound(s, &q);
                for c in planes.super_chunks(s) {
                    assert!(
                        sb <= planes.chunk_lower_bound(c, &q),
                        "super {s} bound exceeds chunk {c} bound"
                    );
                }
            }
        }
    }

    #[test]
    fn singleton_chunk_bound_is_exact() {
        let sigs = vec![
            SignatureVector::new(vec![1, -1, 0, 1, 0]),
            SignatureVector::new(vec![0, 1, -1, -1, 1]),
        ];
        let mut planes = planes_of(&sigs);
        planes.build_chunks(&[0, 1], &[0, 0]);
        let v = SamplingVector::from_ternary(vec![Some(-1), Some(1), Some(0), None, Some(0)]);
        let q = PackedQuery::new(&v);
        for c in 0..2 {
            let f = planes.chunk_faces(c)[0] as usize;
            assert_eq!(
                planes.chunk_lower_bound(c, &q),
                planes.distance_squared(f, &q)
            );
        }
    }

    /// A one-face chunk allows exactly that face's value per component, so
    /// its extended bound is the face's distance, bit for bit — and a
    /// two-face super-chunk's bound undercuts both.
    #[test]
    fn extended_singleton_chunk_bound_is_exact() {
        let sigs = vec![
            SignatureVector::new(vec![1, -1, 0, 1, 0, -1]),
            SignatureVector::new(vec![0, 1, -1, -1, 1, -1]),
        ];
        let mut planes = planes_of(&sigs);
        planes.build_chunks(&[0, 1], &[0, 0]);
        let v = SamplingVector::new(vec![
            Some(0.5),
            None,
            Some(-0.25),
            Some(1.0),
            Some(0.0),
            Some(-1.0 / 3.0),
        ]);
        let q = PackedQuery::new(&v);
        assert!(!q.is_packed_ternary());
        for c in 0..2 {
            let f = planes.chunk_faces(c)[0] as usize;
            let d2 = planes.distance_squared(f, &q);
            assert_eq!(planes.chunk_lower_bound(c, &q).to_bits(), d2.to_bits());
            assert_eq!(
                d2.to_bits(),
                difference_norm_squared(&v, &sigs[f]).to_bits()
            );
            assert!(planes.super_lower_bound(0, &q) <= d2);
        }
    }

    #[test]
    fn chunk_storage_is_accounted_and_shrunk() {
        let sigs: Vec<SignatureVector> = (0..4)
            .map(|s| SignatureVector::new(vec![(s % 3) as i8 - 1; 70]))
            .collect();
        let mut planes = planes_of(&sigs);
        let before = planes.memory_bytes();
        planes.build_chunks(&[0, 0, 1, 1], &[0, 0, 0, 0]);
        let with_chunks = planes.memory_bytes();
        // 2 chunks × 2 words × 5 envelopes × 8 bytes, plus the face order
        // and boundary arrays.
        assert!(
            with_chunks >= before + 2 * 2 * 5 * 8,
            "chunk arrays unaccounted: {before} -> {with_chunks}"
        );
        planes.shrink_to_fit();
        assert!(planes.memory_bytes() <= with_chunks);
        assert!(planes.has_chunks(), "shrinking must not drop the chunks");
    }

    #[test]
    #[should_panic(expected = "cannot append faces")]
    fn pushing_after_chunks_built_is_rejected() {
        let sig = SignatureVector::new(vec![1, 0, -1]);
        let mut planes = planes_of(std::slice::from_ref(&sig));
        planes.build_chunks(&[0], &[0]);
        planes.push_signature(&sig);
    }

    #[test]
    #[should_panic(expected = "must cover every face")]
    fn wrong_assignment_length_rejected() {
        let mut planes = planes_of(&[SignatureVector::new(vec![1, 0, -1])]);
        planes.build_chunks(&[0, 1], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_rejected() {
        let planes = planes_of(&[SignatureVector::new(vec![1, 0])]);
        let v = SamplingVector::from_ternary(vec![Some(1)]);
        let q = PackedQuery::new(&v);
        let _ = planes.distance_squared(0, &q);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_planes_rejected() {
        let mut planes = SignaturePlanes::new(3);
        planes.push_packed(&[0b011], &[0b001]);
    }

    #[test]
    #[should_panic(expected = "padding bits")]
    fn padding_bits_rejected() {
        let mut planes = SignaturePlanes::new(3);
        planes.push_packed(&[0b1000], &[0]);
    }
}
