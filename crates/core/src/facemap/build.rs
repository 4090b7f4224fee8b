//! Face-map construction by approximate grid division.
//!
//! Rasterization writes packed signature planes directly: each grid row
//! becomes a [`PackedRow`] arena (two `u64` bit-plane words per 64 pairs
//! per cell, in-place bit writes — no per-cell `Vec<i8>`), and grouping
//! into faces compares and hashes those words instead of rehashing a full
//! signature vector per cell. The per-pair Apollonius classifier state
//! (`c²`, flat node coordinates, the canonical pair list) is precomputed
//! once per build by [`RowRasterizer`]; the classifying comparisons
//! themselves are kept verbatim from [`PairRegion::classify`]
//! (`da²·c² < db²`, `da² > c²·db²`) so rasterized signatures stay
//! bit-identical to [`signature_of`] — an algebraically expanded quadratic
//! form would round differently on boundary cells.

use crate::vector::{words_for, SamplingVector, SignaturePlanes, SignatureVector};
use std::collections::HashMap;
use std::fmt;
use wsn_geometry::{CellIndex, Grid, PairRegion, Point, Rect};
use wsn_network::{pair_count, PairIter};
use wsn_parallel::par_map_threads;
use wsn_telemetry as telemetry;

/// Dense face identifier (index into [`FaceMap::faces`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaceId(pub u32);

impl FaceId {
    /// Zero-based index into the face list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// One face of the division: a maximal set of grid cells sharing a
/// signature vector. The signature itself lives once, in the map's plane
/// arena: [`FaceMap::signature`].
#[derive(Debug, Clone, PartialEq)]
pub struct Face {
    /// Identifier (equals the face's index).
    pub id: FaceId,
    /// Centroid of the face's cell centres (eq. 5) — the location estimate
    /// reported when the target is matched to this face.
    pub centroid: Point,
    /// Number of grid cells in the face (its area is
    /// `cell_count × cell_size²`).
    pub cell_count: usize,
    /// Axis-aligned bounding box of the face's cell centres (used for
    /// conservative geometric reachability tests, e.g. the PM baseline's
    /// max-velocity constraint).
    pub bbox: Rect,
}

/// Computes the signature vector of point `p` for sensors at `positions`
/// with uncertainty constant `c` (exact, not rasterized).
///
/// # Panics
///
/// Panics if fewer than two positions are given.
pub fn signature_of(p: Point, positions: &[Point], c: f64) -> SignatureVector {
    assert!(positions.len() >= 2, "need at least two sensors");
    let mut comps = Vec::with_capacity(pair_count(positions.len()));
    for (i, j) in PairIter::new(positions.len()) {
        comps.push(PairRegion::classify(p, positions[i], positions[j], c).signature_component());
    }
    SignatureVector::new(comps)
}

/// One rasterized grid row: per-cell signature planes stored contiguously
/// (cell `ix`'s planes occupy words `ix·W .. (ix+1)·W` of each arena).
pub(super) struct PackedRow {
    words: usize,
    plus: Vec<u64>,
    minus: Vec<u64>,
}

impl PackedRow {
    fn zeroed(nx: usize, words: usize) -> Self {
        Self {
            words,
            plus: vec![0; nx * words],
            minus: vec![0; nx * words],
        }
    }

    #[inline]
    pub(super) fn cell(&self, ix: usize) -> (&[u64], &[u64]) {
        let r = ix * self.words..(ix + 1) * self.words;
        (&self.plus[r.clone()], &self.minus[r])
    }

    #[inline]
    fn cell_mut(&mut self, ix: usize) -> (&mut [u64], &mut [u64]) {
        let r = ix * self.words..(ix + 1) * self.words;
        (&mut self.plus[r.clone()], &mut self.minus[r])
    }
}

/// Per-build classifier state hoisted out of the cells × pairs loop:
/// `c²` and flat node coordinates — everything [`PairRegion::classify`]
/// re-derives per call. Per row the `dy²` per node is fixed once; per cell
/// the `n` node distances (and their `c²` multiples) are computed once and
/// every pair classification is two branch-free comparisons. The compare
/// results go to one-byte lanes first (a pure vectorizable compare sweep
/// per node — a direct bit accumulator would serialize the whole pair loop
/// on one shift/or chain) and are packed to plane words afterwards.
pub(super) struct RowRasterizer {
    xs: Vec<f64>,
    ys: Vec<f64>,
    c2: f64,
    words: usize,
}

/// Reusable per-cell scratch: `dy²` per node (fixed along a grid row),
/// node squared distances, their `c²` multiples, and the one-byte compare
/// lanes (`words × 64` long so packing sees whole words; the tail past the
/// pair dimension is written once at allocation and never touched again).
pub(super) struct ClassifyScratch {
    dy2: Vec<f64>,
    nd2: Vec<f64>,
    nc2: Vec<f64>,
    pb: Vec<u8>,
    mb: Vec<u8>,
}

/// Packs 64 compare bytes (each `0` or `1`) into a word, least-significant
/// bit first. The multiply gathers each byte's low bit into the top byte:
/// the coefficient puts term `bᵢ·2^(56+i)` at a distinct bit position for
/// every byte (no carries), so the high byte of the product reads out the
/// eight flags at once.
#[inline]
fn pack_compare_bytes(chunk: &[u8]) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut word = 0u64;
    for (g, group) in chunk.chunks_exact(8).enumerate() {
        let lanes = u64::from_le_bytes(group.try_into().expect("chunks_exact(8)"));
        word |= (lanes.wrapping_mul(GATHER) >> 56) << (8 * g);
    }
    word
}

impl RowRasterizer {
    pub(super) fn new(positions: &[Point], c: f64) -> Self {
        Self {
            xs: positions.iter().map(|p| p.x).collect(),
            ys: positions.iter().map(|p| p.y).collect(),
            c2: c * c,
            words: words_for(pair_count(positions.len())),
        }
    }

    pub(super) fn scratch(&self) -> ClassifyScratch {
        let n = self.xs.len();
        ClassifyScratch {
            dy2: vec![0.0; n],
            nd2: vec![0.0; n],
            nc2: vec![0.0; n],
            pb: vec![0; self.words * 64],
            mb: vec![0; self.words * 64],
        }
    }

    /// Fixes the row ordinate: every cell centre of a grid row shares `y`,
    /// so `dy²` per node is computed once per row.
    pub(super) fn begin_row(&self, cy: f64, s: &mut ClassifyScratch) {
        for (k, d) in s.dy2.iter_mut().enumerate() {
            let dy = cy - self.ys[k];
            *d = dy * dy;
        }
    }

    /// Classifies the cell centre at abscissa `cx` of the current row
    /// (see [`RowRasterizer::begin_row`]) into packed plane words.
    ///
    /// Bit-identical to [`signature_of`]: `dy²` is the same product scalar
    /// classification computes, `dx² + dy²` matches
    /// `Point::distance_squared`'s operand order, and the comparisons are
    /// those of [`PairRegion::classify`] with the products `da²·c²` hoisted
    /// per node (multiplying the same two values rounds the same way
    /// wherever the expression sits).
    #[inline]
    fn classify_into(&self, cx: f64, s: &mut ClassifyScratch, plus: &mut [u64], minus: &mut [u64]) {
        let n = self.xs.len();
        for k in 0..n {
            let dx = cx - self.xs[k];
            let d2 = dx * dx + s.dy2[k];
            s.nd2[k] = d2;
            s.nc2[k] = self.c2 * d2;
        }
        let mut off = 0usize;
        for i in 0..n - 1 {
            let da2 = s.nd2[i];
            let pa = da2 * self.c2;
            let m = n - 1 - i;
            let db = &s.nd2[i + 1..n];
            let cb = &s.nc2[i + 1..n];
            let pb = &mut s.pb[off..off + m];
            for k in 0..m {
                pb[k] = u8::from(pa < db[k]);
            }
            let mb = &mut s.mb[off..off + m];
            for k in 0..m {
                mb[k] = u8::from(da2 > cb[k]);
            }
            off += m;
        }
        for (w, chunk) in s.pb.chunks_exact(64).enumerate() {
            plus[w] = pack_compare_bytes(chunk);
        }
        for (w, chunk) in s.mb.chunks_exact(64).enumerate() {
            minus[w] = pack_compare_bytes(chunk);
        }
    }

    /// Classifies only the pairs that involve the sensor at list index
    /// `p` for the cell centre at abscissa `cx` of the current row,
    /// returning the compare bits packed ascending in the canonical pair
    /// enumeration's order of those pairs — `(0,p) … (p−1,p)`, then
    /// `(p,p+1) … (p,n−1)` — bit 0 first. Only valid for `n ≤ 65` (at
    /// most 64 such pairs). Every floating-point operation matches
    /// [`RowRasterizer::classify_into`] operand for operand, so the bits
    /// equal the corresponding bits of a full classification.
    pub(super) fn classify_node(&self, cx: f64, p: usize, s: &mut ClassifyScratch) -> (u64, u64) {
        let n = self.xs.len();
        debug_assert!(n <= 65, "classify_node packs at most 64 pair bits");
        for k in 0..n {
            let dx = cx - self.xs[k];
            let d2 = dx * dx + s.dy2[k];
            s.nd2[k] = d2;
            s.nc2[k] = self.c2 * d2;
        }
        let dp2 = s.nd2[p];
        let pp = dp2 * self.c2;
        let mut fp = 0u64;
        let mut fm = 0u64;
        let mut bit = 0u32;
        for i in 0..p {
            let da2 = s.nd2[i];
            let pa = da2 * self.c2;
            fp |= u64::from(pa < dp2) << bit;
            fm |= u64::from(da2 > s.nc2[p]) << bit;
            bit += 1;
        }
        for j in p + 1..n {
            fp |= u64::from(pp < s.nd2[j]) << bit;
            fm |= u64::from(dp2 > s.nc2[j]) << bit;
            bit += 1;
        }
        (fp, fm)
    }

    /// Rasterizes grid row `iy` into a fresh packed arena.
    pub(super) fn rasterize_row(&self, grid: &Grid, iy: u32) -> PackedRow {
        let nx = grid.nx() as usize;
        let mut row = PackedRow::zeroed(nx, self.words);
        let mut s = self.scratch();
        self.begin_row(grid.center(CellIndex::new(0, iy)).y, &mut s);
        for ix in 0..nx {
            let cx = grid.center(CellIndex::new(ix as u32, iy)).x;
            let (pw, mw) = row.cell_mut(ix);
            self.classify_into(cx, &mut s, pw, mw);
        }
        row
    }
}

/// Assigns every face to a `(chunk, super-chunk)` pair of the
/// coarse-to-fine index by the grid cell of its centroid.
///
/// The grid is tiled twice with square tiles of raster cells: fine tiles
/// of `side × side` cells become chunks, coarse tiles of `4·side` become
/// super-chunks (so each super-chunk covers a 4×4 block of chunks).
/// Nearby faces have similar signatures (they differ only in the pairs
/// whose boundary separates them), so spatial tiles give the envelope
/// summaries their tightness. The fine side targets ~16 faces per chunk
/// — small enough that a surviving chunk costs only a handful of exact
/// distance evaluations — while the matcher's full bound sweep happens
/// at the ~256-face super level, keeping it a fraction of the map.
///
/// Deterministic in the map alone: centroids are exact f64 averages that
/// round-trip bit-for-bit through the codec, so an encoded/decoded map
/// reproduces the identical assignment.
fn chunk_assignment(grid: &Grid, faces: &[Face]) -> (Vec<u32>, Vec<u32>) {
    let cells = grid.cell_count() as f64;
    let per_cell = faces.len().max(1) as f64 / cells;
    let side = ((16.0 / per_cell).sqrt().round()).clamp(1.0, 4096.0) as u32;
    let super_side = side * 4;
    let cx = grid.nx().div_ceil(side);
    let sx = grid.nx().div_ceil(super_side);
    let keys = |tile: u32, stride: u32| {
        faces
            .iter()
            .map(|f| {
                // A centroid is an average of in-field cell centers, so it
                // lies in the field; `map_or` keeps this total regardless.
                grid.index_of(f.centroid)
                    .map_or(0, |cell| (cell.iy / tile) * stride + cell.ix / tile)
            })
            .collect::<Vec<u32>>()
    };
    (keys(side, cx), keys(super_side, sx))
}

/// Word mixer keying the grouping table; full planes are compared on the
/// rare collisions, so this only needs to spread well.
pub(super) fn hash_planes(plus: &[u64], minus: &[u64]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0u64;
    for &w in plus.iter().chain(minus.iter()) {
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    h
}

/// Pass-through hasher for keys already mixed by [`hash_planes`]: running
/// them through SipHash again would only cost time on the hottest grouping
/// path.
#[derive(Default)]
pub(super) struct PlaneKeyHasher(u64);

impl std::hash::Hasher for PlaneKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("plane keys hash via write_u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

pub(super) type PlaneKeyState = std::hash::BuildHasherDefault<PlaneKeyHasher>;

/// Signature → face index over the packed planes: a word-hash bucket map
/// (first face per hash) plus an overflow list for the astronomically rare
/// 64-bit collisions; lookups always confirm by full component comparison.
#[derive(Debug, Clone, Default)]
pub(super) struct SignatureIndex {
    pub(super) first: HashMap<u64, u32, PlaneKeyState>,
    pub(super) overflow: Vec<u32>,
}

/// Per-cell accumulators of a grouping pass: centroid sums, bounding
/// boxes, the cell→face index and boundary crossings, fed resolved face
/// ids in raster order.
///
/// Shared between the fresh build ([`Grouper`]) and the churn-repair fast
/// paths, which resolve ids without per-cell plane comparisons but must
/// reproduce the exact same accumulation — in particular the f64 centroid
/// sums, whose rounding depends on raster order.
pub(super) struct CellAccum {
    nx: usize,
    iy: usize,
    prev: Option<u32>,
    cell_to_face: Vec<u32>,
    sums: Vec<(f64, f64, usize)>,
    boxes: Vec<Rect>,
    crossings: Vec<(u32, u32)>,
}

impl CellAccum {
    pub(super) fn new(grid: &Grid, hint: usize) -> Self {
        Self {
            nx: grid.nx() as usize,
            iy: 0,
            prev: None,
            cell_to_face: vec![0u32; grid.cell_count()],
            sums: Vec::with_capacity(hint),
            boxes: Vec::with_capacity(hint),
            crossings: Vec::new(),
        }
    }

    pub(super) fn begin_row(&mut self, iy: usize) {
        self.prev = None;
        self.iy = iy;
    }

    /// Face id of the cell directly above the current one, if any.
    #[inline]
    fn above(&self, ix: usize) -> Option<u32> {
        if self.iy > 0 {
            Some(self.cell_to_face[(self.iy - 1) * self.nx + ix])
        } else {
            None
        }
    }

    /// Folds one resolved cell into the accumulators. Face ids must be
    /// numbered by first raster encounter: a brand-new id equals the
    /// current face count and allocates its accumulator slots here, which
    /// is what lets repair paths pre-resolve ids and still share this
    /// code verbatim.
    pub(super) fn record(&mut self, grid: &Grid, ix: usize, id: u32) {
        let idx = CellIndex::new(ix as u32, self.iy as u32);
        let center = grid.center(idx);
        let above = self.above(ix);
        if id as usize == self.sums.len() {
            self.sums.push((0.0, 0.0, 0));
            self.boxes.push(Rect::point(center));
        }
        debug_assert!(
            (id as usize) < self.sums.len(),
            "face ids must be dense first-encounter numbers"
        );
        let s = &mut self.sums[id as usize];
        s.0 += center.x;
        s.1 += center.y;
        s.2 += 1;
        self.boxes[id as usize] = self.boxes[id as usize].union_point(center);
        self.cell_to_face[grid.linear(idx)] = id;
        // Skip a crossing identical to the last one recorded: a straight
        // boundary repeats the same pair every cell, and the post-pass
        // dedups the rest.
        if let Some(p) = self.prev {
            if p != id && self.crossings.last() != Some(&(p, id)) {
                self.crossings.push((p, id));
            }
        }
        if let Some(a) = above {
            if a != id && self.crossings.last() != Some(&(a, id)) {
                self.crossings.push((a, id));
            }
        }
        self.prev = Some(id);
    }
}

/// Incremental face grouping over per-cell packed signatures fed in
/// raster order: resolves each cell's planes to a face id — run-length
/// fast paths against the previous cell and the cell above, then the
/// word-hash [`SignatureIndex`] with full plane comparison on collision —
/// and accumulates via [`CellAccum`]. Faces keep their first-encounter,
/// row-major numbering.
pub(super) struct Grouper {
    planes: SignaturePlanes,
    sig_index: SignatureIndex,
    accum: CellAccum,
}

impl Grouper {
    pub(super) fn new(grid: &Grid, dim: usize, hint: usize) -> Self {
        let mut planes = SignaturePlanes::new(dim);
        planes.reserve(hint);
        let mut sig_index = SignatureIndex::default();
        sig_index.first.reserve(hint);
        Self {
            planes,
            sig_index,
            accum: CellAccum::new(grid, hint),
        }
    }

    pub(super) fn begin_row(&mut self, iy: usize) {
        self.accum.begin_row(iy);
    }

    /// Resolves one cell's packed planes to a face id (creating the face
    /// on first sight) and folds the cell into the accumulators.
    pub(super) fn cell(&mut self, grid: &Grid, ix: usize, cp: &[u64], cm: &[u64]) -> u32 {
        let matches = |planes: &SignaturePlanes, f: u32| {
            planes.plus(f as usize) == cp && planes.minus(f as usize) == cm
        };
        let mut id = self.accum.prev.filter(|&f| matches(&self.planes, f));
        if id.is_none() {
            id = self.accum.above(ix).filter(|&f| matches(&self.planes, f));
        }
        let id = match id {
            Some(f) => f,
            None => match self.sig_index.first.entry(hash_planes(cp, cm)) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    let f = self.planes.push_packed(cp, cm) as u32;
                    e.insert(f);
                    f
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let first = *e.get();
                    if matches(&self.planes, first) {
                        first
                    } else if let Some(&f) = self
                        .sig_index
                        .overflow
                        .iter()
                        .find(|&&f| matches(&self.planes, f))
                    {
                        f
                    } else {
                        let f = self.planes.push_packed(cp, cm) as u32;
                        self.sig_index.overflow.push(f);
                        f
                    }
                }
            },
        };
        self.accum.record(grid, ix, id);
        id
    }

    /// Finalizes into a [`FaceMap`] via [`assemble`].
    pub(super) fn finish(
        self,
        grid: Grid,
        positions: Vec<Point>,
        c: f64,
        prov: Provenance,
    ) -> FaceMap {
        assemble(
            self.planes,
            self.sig_index,
            self.accum,
            grid,
            positions,
            c,
            prov,
        )
    }
}

/// Provenance bookkeeping a grouped map carries: how its live sensor list
/// relates to the original deployment, and the repair epoch.
pub(super) struct Provenance {
    pub(super) deployment: Vec<Point>,
    pub(super) live: Vec<u32>,
    pub(super) pair_gather: Vec<u32>,
    pub(super) epoch: u64,
}

/// Finalizes a grouping pass into a [`FaceMap`]: shrinks the arenas,
/// materializes faces and neighbor links from the accumulated sums and
/// crossings, and builds the chunk summaries. Every construction *and*
/// repair path funnels through here, so face, centroid, neighbor and
/// chunk layout cannot drift between them.
pub(super) fn assemble(
    mut planes: SignaturePlanes,
    mut sig_index: SignatureIndex,
    accum: CellAccum,
    grid: Grid,
    positions: Vec<Point>,
    c: f64,
    prov: Provenance,
) -> FaceMap {
    let CellAccum {
        cell_to_face,
        sums,
        boxes,
        crossings,
        ..
    } = accum;
    // Return the worst-case reservation headroom: coarse maps (faces ≪
    // cells) would otherwise retain it for their whole lifetime.
    planes.shrink_to_fit();
    sig_index.first.shrink_to_fit();
    let faces: Vec<Face> = (0..planes.face_count())
        .map(|i| {
            let (sx, sy, count) = sums[i];
            Face {
                id: FaceId(i as u32),
                centroid: Point::new(sx / count as f64, sy / count as f64),
                cell_count: count,
                bbox: boxes[i],
            }
        })
        .collect();

    // Invariant the matchers lean on (`ties[0]`, heuristic seeds): a
    // grid always has ≥ 1 cell (Grid rejects empty extents) and every
    // cell is assigned to exactly one face, so a built map carries
    // ≥ 1 face. Fail here with a clear message rather than as an
    // index-out-of-bounds deep inside a matcher.
    assert!(
        !faces.is_empty(),
        "FaceMap invariant violated: rasterization of {} cells produced zero faces",
        grid.cell_count()
    );

    // Neighbor-face links from the recorded boundary crossings. A
    // counting pass sizes each face's set exactly up front: at fine
    // resolutions nearly every cell border is a crossing, and letting
    // thousands of tiny vectors grow by doubling is measurable on the
    // churn-repair path (which re-runs this per event).
    let mut degree = vec![0u32; faces.len()];
    for &(a, b) in &crossings {
        degree[a as usize] += 1;
        degree[b as usize] += 1;
    }
    let mut neighbor_sets: Vec<Vec<FaceId>> = degree
        .into_iter()
        .map(|d| Vec::with_capacity(d as usize))
        .collect();
    for (a, b) in crossings {
        neighbor_sets[a as usize].push(FaceId(b));
        neighbor_sets[b as usize].push(FaceId(a));
    }
    for set in &mut neighbor_sets {
        set.sort_unstable();
        set.dedup();
    }

    let (chunk_of, super_of) = chunk_assignment(&grid, &faces);
    planes.build_chunks(&chunk_of, &super_of);

    FaceMap {
        grid,
        positions,
        c,
        faces,
        cell_to_face,
        neighbors: neighbor_sets,
        sig_index,
        planes,
        epoch: prov.epoch,
        deployment: prov.deployment,
        live: prov.live,
        pair_gather: prov.pair_gather,
    }
}

/// The offline face division of a monitored field.
///
/// Built once from a deployment, then kept **alive** under topology
/// churn: [`FaceMap::kill_node`] / [`FaceMap::revive_node`] (see the
/// [`repair`](super::repair) module) patch the division in place when a
/// sensor dies or comes back, bumping [`FaceMap::epoch`]. `positions`
/// always holds the *live* sensors; `deployment` remembers the original
/// roster so a node can return, and `pair_gather` maps the deployment's
/// pair enumeration onto the live one.
#[derive(Debug, Clone)]
pub struct FaceMap {
    pub(super) grid: Grid,
    pub(super) positions: Vec<Point>,
    pub(super) c: f64,
    pub(super) faces: Vec<Face>,
    pub(super) cell_to_face: Vec<u32>,
    pub(super) neighbors: Vec<Vec<FaceId>>,
    pub(super) sig_index: SignatureIndex,
    pub(super) planes: SignaturePlanes,
    /// Repair generation: 0 at build, +1 per churn repair.
    pub(super) epoch: u64,
    /// The full original deployment (ID order), dead sensors included.
    pub(super) deployment: Vec<Point>,
    /// Sorted deployment indices of the live sensors (`positions[i]` is
    /// `deployment[live[i]]`).
    pub(super) live: Vec<u32>,
    /// Deployment pair index per live pair index; empty ⇔ identity (all
    /// deployment nodes live).
    pub(super) pair_gather: Vec<u32>,
}

impl FaceMap {
    /// Builds the face map serially. See [`FaceMap::build_with_threads`].
    pub fn build(positions: &[Point], field: Rect, c: f64, cell_size: f64) -> Self {
        Self::build_with_threads(positions, field, c, cell_size, 1)
    }

    /// Builds the face map, rasterizing rows of cells across `threads`
    /// workers.
    ///
    /// `positions` are the sensor locations (ID order), `field` the
    /// monitored rectangle, `c ≥ 1` the uncertainty constant (`c = 1`
    /// degenerates to the perpendicular-bisector division used by the
    /// certain-sequence baselines) and `cell_size` the raster resolution in
    /// metres.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sensors are given, `c < 1`, or `cell_size`
    /// is not strictly positive.
    pub fn build_with_threads(
        positions: &[Point],
        field: Rect,
        c: f64,
        cell_size: f64,
        threads: usize,
    ) -> Self {
        assert!(positions.len() >= 2, "need at least two sensors");
        assert!(
            c.is_finite() && c >= 1.0,
            "uncertainty constant must be ≥ 1, got {c}"
        );
        let _total = telemetry::span("fttt.build.total");
        let grid = Grid::cover(field, cell_size);

        // Rasterize: one packed signature per cell, row-parallel.
        let raster = RowRasterizer::new(positions, c);
        let rows: Vec<u32> = (0..grid.ny()).collect();
        let packed: Vec<PackedRow> = {
            let _span = telemetry::span("fttt.build.rasterize");
            par_map_threads(threads, &rows, |_, &iy| raster.rasterize_row(&grid, iy))
        };
        Self::from_packed_rows(grid, positions, c, packed)
    }

    /// Builds the map with the **adaptive double-level grid division** of
    /// the authors' companion work ([29], referenced in Section 4.3):
    /// classify a coarse lattice first, then refine only the coarse cells
    /// that sit on a face boundary (a 4-neighbor with a different
    /// signature), letting interior fine cells inherit the coarse label
    /// without touching the `O(pairs)` classifier.
    ///
    /// With `B` boundary cells out of `N` coarse cells, classification
    /// work drops from `N·r²` to `N + B·r²` (`r` = `refine` factor) —
    /// typically 3–10× on the paper's field (see the `facemap_build`
    /// Criterion bench). The price is approximation: a face thinner than a
    /// coarse cell can be missed entirely if it never crosses a coarse
    /// centre; the `adaptive` tests bound how often that happens at the
    /// paper's parameters.
    ///
    /// The resulting map's resolution equals `coarse_cell / refine`.
    ///
    /// # Panics
    ///
    /// Panics on the same inputs as [`FaceMap::build_with_threads`], or if
    /// `refine < 2`.
    pub fn build_adaptive(
        positions: &[Point],
        field: Rect,
        c: f64,
        coarse_cell: f64,
        refine: u32,
        threads: usize,
    ) -> Self {
        assert!(positions.len() >= 2, "need at least two sensors");
        assert!(
            c.is_finite() && c >= 1.0,
            "uncertainty constant must be ≥ 1, got {c}"
        );
        assert!(
            refine >= 2,
            "refinement factor must be at least 2, got {refine}"
        );
        let _total = telemetry::span("fttt.build.total");
        let coarse = Grid::cover(field, coarse_cell);
        let fine = Grid::cover(field, coarse_cell / refine as f64);
        let raster = RowRasterizer::new(positions, c);

        // Pass 1: classify the coarse lattice.
        let rasterize_span = telemetry::span("fttt.build.rasterize");
        let rows: Vec<u32> = (0..coarse.ny()).collect();
        let coarse_rows: Vec<PackedRow> =
            par_map_threads(threads, &rows, |_, &iy| raster.rasterize_row(&coarse, iy));

        // Pass 2: mark coarse cells on a signature boundary (packed word
        // comparison — plane equality is signature equality).
        let boundary: Vec<bool> = (0..coarse.cell_count())
            .map(|lin| {
                let idx = coarse.from_linear(lin);
                let here = coarse_rows[idx.iy as usize].cell(idx.ix as usize);
                coarse
                    .neighbors4(idx)
                    .any(|nb| coarse_rows[nb.iy as usize].cell(nb.ix as usize) != here)
            })
            .collect();

        // Pass 3: emit fine-cell signatures — classified inside boundary
        // cells, inherited (a word copy) elsewhere.
        let fine_rows_idx: Vec<u32> = (0..fine.ny()).collect();
        let fine_rows: Vec<PackedRow> = par_map_threads(threads, &fine_rows_idx, |_, &iy| {
            let nx = fine.nx() as usize;
            let mut row = PackedRow::zeroed(nx, raster.words);
            let mut s = raster.scratch();
            raster.begin_row(fine.center(CellIndex::new(0, iy)).y, &mut s);
            // The owning coarse cell (fine lattices can extend one partial
            // column/row past the coarse one).
            let cy = (iy / refine).min(coarse.ny() - 1);
            for ix in 0..nx {
                let cx = (ix as u32 / refine).min(coarse.nx() - 1);
                let (pw, mw) = row.cell_mut(ix);
                if boundary[coarse.linear(CellIndex::new(cx, cy))] {
                    let center_x = fine.center(CellIndex::new(ix as u32, iy)).x;
                    raster.classify_into(center_x, &mut s, pw, mw);
                } else {
                    let (cp, cm) = coarse_rows[cy as usize].cell(cx as usize);
                    pw.copy_from_slice(cp);
                    mw.copy_from_slice(cm);
                }
            }
            row
        });
        drop(rasterize_span);
        Self::from_packed_rows(fine, positions, c, fine_rows)
    }

    /// Groups per-cell packed signatures (row-major) into faces,
    /// centroids, neighbor links, the signature index and the plane arena
    /// — a thin raster loop over the shared [`Grouper`].
    fn from_packed_rows(grid: Grid, positions: &[Point], c: f64, rows: Vec<PackedRow>) -> Self {
        let _span = telemetry::span("fttt.build.group");
        let dim = pair_count(positions.len());
        let nx = grid.nx() as usize;
        // At the paper's densities most cells found a new face, so size
        // for the worst case once instead of paying growth reallocations.
        let mut grouper = Grouper::new(&grid, dim, grid.cell_count());
        for (iy, row) in rows.iter().enumerate() {
            grouper.begin_row(iy);
            for ix in 0..nx {
                let (cp, cm) = row.cell(ix);
                grouper.cell(&grid, ix, cp, cm);
            }
        }
        let live = (0..positions.len() as u32).collect();
        let prov = Provenance {
            deployment: positions.to_vec(),
            live,
            pair_gather: Vec::new(),
            epoch: 0,
        };
        let map = grouper.finish(grid, positions.to_vec(), c, prov);
        if telemetry::enabled() {
            telemetry::counter_add("fttt.build.calls", 1);
            telemetry::counter_add("fttt.build.faces", map.faces.len() as u64);
            telemetry::counter_add("fttt.build.cells", map.grid.cell_count() as u64);
        }
        map
    }

    /// The raster grid.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Positions of the currently *live* sensors (ascending deployment
    /// order). Equal to [`FaceMap::deployment`] until a repair removes a
    /// node.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The full original deployment (ID order), dead sensors included.
    #[inline]
    pub fn deployment(&self) -> &[Point] {
        &self.deployment
    }

    /// Repair epoch: `0` for a freshly built (or decoded) map, bumped by
    /// one on every churn repair — death, birth, or full rebuild alike —
    /// so sessions and replay digests can tell map generations apart.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sorted deployment indices of the currently live sensors.
    #[inline]
    pub fn live_nodes(&self) -> &[u32] {
        &self.live
    }

    /// `true` if deployment node `node` is alive in this map. A map that
    /// never lost a node reports every index live.
    #[inline]
    pub fn is_node_live(&self, node: usize) -> bool {
        self.pair_gather.is_empty() || self.live.binary_search(&(node as u32)).is_ok()
    }

    /// The sorted live deployment nodes once the map has lost one, `None`
    /// while every deployment node is live.
    #[inline]
    pub(crate) fn churned_live_nodes(&self) -> Option<&[u32]> {
        (!self.pair_gather.is_empty()).then_some(&self.live)
    }

    /// Projects a sampling vector indexed by the *deployment's* pair
    /// enumeration down to this map's live-pair space, dropping the
    /// components that mention a dead sensor. A move when every
    /// deployment node is live, and a pass-through when the vector
    /// already has the map's own dimension.
    ///
    /// # Panics
    ///
    /// Panics if `v` matches neither the deployment's pair count nor the
    /// map's pair dimension.
    pub fn project_sampling_vector(&self, v: SamplingVector) -> SamplingVector {
        if self.pair_gather.is_empty() || v.len() == self.pair_dimension() {
            return v;
        }
        assert_eq!(
            v.len(),
            pair_count(self.deployment.len()),
            "sampling vector matches neither the deployment nor the map pairs"
        );
        v.gather(&self.pair_gather)
    }

    /// The uncertainty constant used.
    #[inline]
    pub fn uncertainty_constant(&self) -> f64 {
        self.c
    }

    /// All faces, indexed by [`FaceId`].
    #[inline]
    pub fn faces(&self) -> &[Face] {
        &self.faces
    }

    /// Number of faces.
    #[inline]
    pub fn face_count(&self) -> usize {
        self.faces.len()
    }

    /// Dimension of every signature vector in the map (`C(n,2)`).
    #[inline]
    pub fn pair_dimension(&self) -> usize {
        pair_count(self.positions.len())
    }

    /// Looks up a face.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this map.
    #[inline]
    pub fn face(&self, id: FaceId) -> &Face {
        &self.faces[id.index()]
    }

    /// The face whose raster cell contains `p`, or `None` outside the
    /// field.
    pub fn face_at(&self, p: Point) -> Option<FaceId> {
        let idx = self.grid.index_of(p)?;
        Some(FaceId(self.cell_to_face[self.grid.linear(idx)]))
    }

    /// The face with exactly this signature, if any cell produced it.
    pub fn find_by_signature(&self, sig: &SignatureVector) -> Option<FaceId> {
        if sig.len() != self.pair_dimension() {
            return None;
        }
        let words = words_for(sig.len());
        let mut plus = vec![0u64; words];
        let mut minus = vec![0u64; words];
        for (i, &c) in sig.components().iter().enumerate() {
            let (w, b) = (i / 64, i % 64);
            plus[w] |= u64::from(c > 0) << b;
            minus[w] |= u64::from(c < 0) << b;
        }
        // Full-component comparison, not just plane words: out-of-range
        // components in a foreign signature pack to the same planes as 0.
        let matches = |f: u32| self.planes.components(f as usize) == sig.components();
        let first = *self.sig_index.first.get(&hash_planes(&plus, &minus))?;
        if matches(first) {
            return Some(FaceId(first));
        }
        self.sig_index
            .overflow
            .iter()
            .copied()
            .find(|&f| matches(f))
            .map(FaceId)
    }

    /// The signature of face `id` (Definition 6), one component per live
    /// pair; unique within the map.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this map.
    #[inline]
    pub fn signature(&self, id: FaceId) -> &[i8] {
        self.planes.components(id.index())
    }

    /// `true` if no component of face `id`'s signature is `0`, i.e. the
    /// face lies outside every pair's uncertain area — a "certain" face in
    /// the sense of the sequence-based baselines (these vanish as `C`
    /// grows, paper Fig. 3(c)).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this map.
    pub fn is_certain(&self, id: FaceId) -> bool {
        self.signature(id).iter().all(|&v| v != 0)
    }

    /// Neighbor faces of `id` (Definition 8), sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this map.
    #[inline]
    pub fn neighbors(&self, id: FaceId) -> &[FaceId] {
        &self.neighbors[id.index()]
    }

    /// Total number of directed neighbor links (twice the undirected count).
    pub fn neighbor_link_count(&self) -> usize {
        self.neighbors.iter().map(|n| n.len()).sum()
    }

    /// The face at the centre of the field — the cold-start face for the
    /// heuristic matcher when no previous localization exists.
    pub fn center_face(&self) -> FaceId {
        self.face_at(self.grid.rect().center())
            .expect("field centre is always in the grid")
    }

    /// Number of *certain* faces (no `0` signature component) — the faces
    /// the certain-sequence baselines rely on; the paper's Fig. 3 shows
    /// them disappearing as `C` or node spacing grows.
    pub fn certain_face_count(&self) -> usize {
        self.faces.iter().filter(|f| self.is_certain(f.id)).count()
    }

    /// Exact signature of an arbitrary point under this map's sensors and
    /// constant (not rasterized).
    pub fn signature_at(&self, p: Point) -> SignatureVector {
        signature_of(p, &self.positions, self.c)
    }

    /// Packed signature planes of every face, indexed by [`FaceId`] — the
    /// data structure behind the branch-free matching kernels.
    #[inline]
    pub fn planes(&self) -> &SignaturePlanes {
        &self.planes
    }

    /// Approximate resident size of the map in bytes: the packed plane
    /// arena (which holds the one copy of every signature), the cell→face
    /// index, the neighbor links and the churn bookkeeping (deployment
    /// roster, live list, pair gather) — the quantities behind the paper's
    /// `O(n⁴)` storage claim (Section 4.4.2). Excludes allocator overhead
    /// and small fixed fields.
    ///
    /// The accounting is length-based (plus the plane arena, which every
    /// construction and repair path shrinks to fit before handing the map
    /// back), so the reported bytes stay exact across repairs: killing
    /// and reviving the same node returns the map to the original value.
    pub fn memory_bytes(&self) -> usize {
        let faces = self.faces.len() * std::mem::size_of::<Face>();
        let cells = self.cell_to_face.len() * std::mem::size_of::<u32>();
        let links = self.neighbor_link_count() * std::mem::size_of::<FaceId>();
        // The signature index stores one hash + id per face, not a second
        // copy of the signatures.
        let index = self.faces.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>());
        let topology = self.deployment.len() * std::mem::size_of::<Point>()
            + (self.live.len() + self.pair_gather.len()) * std::mem::size_of::<u32>();
        index + faces + cells + links + topology + self.planes.memory_bytes()
    }

    /// Drops any slack capacity left by construction or repair. Both
    /// paths already hand back shrunk arenas, so this is normally a
    /// no-op; it exists so callers holding a long-lived map across many
    /// repairs can enforce the [`FaceMap::memory_bytes`] accounting
    /// invariant explicitly.
    pub fn shrink_to_fit(&mut self) {
        self.positions.shrink_to_fit();
        self.deployment.shrink_to_fit();
        self.live.shrink_to_fit();
        self.pair_gather.shrink_to_fit();
        self.faces.shrink_to_fit();
        self.cell_to_face.shrink_to_fit();
        for set in &mut self.neighbors {
            set.shrink_to_fit();
        }
        self.neighbors.shrink_to_fit();
        self.sig_index.first.shrink_to_fit();
        self.sig_index.overflow.shrink_to_fit();
        self.planes.shrink_to_fit();
    }
}

/// Errors from the face-map binary codec.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The bytes are not a face-map file (bad magic or version).
    BadMagic,
    /// Structurally invalid contents (truncated, inconsistent counts,
    /// out-of-range values).
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "face-map codec I/O error: {e}"),
            CodecError::BadMagic => write!(f, "not a face-map file (bad magic)"),
            CodecError::Corrupt(what) => write!(f, "corrupt face-map file: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

const CODEC_MAGIC: &[u8; 8] = b"FTTTMAP1";

fn write_u32<W: std::io::Write>(w: &mut W, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64<W: std::io::Write>(w: &mut W, v: f64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: std::io::Read>(r: &mut R) -> Result<u32, CodecError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_f64<R: std::io::Read>(r: &mut R) -> Result<f64, CodecError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

impl FaceMap {
    /// Serializes the map into a compact little-endian binary stream.
    ///
    /// This is the paper's deployment split made concrete: the face
    /// division is computed once offline (Section 4.3) and shipped to the
    /// base station / cluster heads, which only run the cheap online
    /// matching. The format is self-contained (magic + version header) and
    /// round-trips exactly — see [`FaceMap::read_from`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from `w`.
    pub fn write_to<W: std::io::Write>(&self, w: &mut W) -> Result<(), CodecError> {
        w.write_all(CODEC_MAGIC)?;
        // Grid as its defining parameters.
        let rect = self.grid.rect();
        for v in [
            rect.min.x,
            rect.min.y,
            rect.max.x,
            rect.max.y,
            self.grid.cell_size(),
            self.c,
        ] {
            write_f64(w, v)?;
        }
        write_u32(w, self.positions.len() as u32)?;
        for p in &self.positions {
            write_f64(w, p.x)?;
            write_f64(w, p.y)?;
        }
        write_u32(w, self.faces.len() as u32)?;
        let dim = self.pair_dimension();
        for f in &self.faces {
            let sig = self.signature(f.id);
            debug_assert_eq!(sig.len(), dim);
            // Signatures as raw bytes (two's complement i8).
            let bytes: Vec<u8> = sig.iter().map(|&v| v as u8).collect();
            w.write_all(&bytes)?;
            for v in [
                f.centroid.x,
                f.centroid.y,
                f.bbox.min.x,
                f.bbox.min.y,
                f.bbox.max.x,
                f.bbox.max.y,
            ] {
                write_f64(w, v)?;
            }
            write_u32(w, f.cell_count as u32)?;
        }
        write_u32(w, self.cell_to_face.len() as u32)?;
        for &c in &self.cell_to_face {
            write_u32(w, c)?;
        }
        for nbs in &self.neighbors {
            write_u32(w, nbs.len() as u32)?;
            for nb in nbs {
                write_u32(w, nb.0)?;
            }
        }
        Ok(())
    }

    /// Deserializes a map written by [`FaceMap::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on I/O failure, a foreign byte stream, or a
    /// structurally inconsistent file.
    pub fn read_from<R: std::io::Read>(r: &mut R) -> Result<Self, CodecError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != CODEC_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let min_x = read_f64(r)?;
        let min_y = read_f64(r)?;
        let max_x = read_f64(r)?;
        let max_y = read_f64(r)?;
        let cell = read_f64(r)?;
        let c = read_f64(r)?;
        if !(cell > 0.0 && cell.is_finite() && c >= 1.0 && c.is_finite()) {
            return Err(CodecError::Corrupt("invalid grid cell or constant"));
        }
        if !(min_x < max_x
            && min_y < max_y
            && [min_x, min_y, max_x, max_y].iter().all(|v| v.is_finite()))
        {
            return Err(CodecError::Corrupt("invalid field rectangle"));
        }
        let grid = Grid::cover(
            Rect::new(Point::new(min_x, min_y), Point::new(max_x, max_y)),
            cell,
        );

        let n_pos = read_u32(r)? as usize;
        if !(2..=100_000).contains(&n_pos) {
            return Err(CodecError::Corrupt("implausible sensor count"));
        }
        let mut positions = Vec::with_capacity(n_pos);
        for _ in 0..n_pos {
            let x = read_f64(r)?;
            let y = read_f64(r)?;
            positions.push(Point::new(x, y));
        }
        let dim = pair_count(n_pos);

        let n_faces = read_u32(r)? as usize;
        if n_faces == 0 || n_faces > grid.cell_count() {
            return Err(CodecError::Corrupt("face count out of range"));
        }
        let mut faces = Vec::with_capacity(n_faces);
        let mut planes = SignaturePlanes::new(dim);
        for i in 0..n_faces {
            let mut sig_bytes = vec![0u8; dim];
            r.read_exact(&mut sig_bytes)?;
            let comps: Vec<i8> = sig_bytes.into_iter().map(|b| b as i8).collect();
            if comps.iter().any(|&v| !(-1..=1).contains(&v)) {
                return Err(CodecError::Corrupt("signature component out of range"));
            }
            planes.push_signature(&SignatureVector::new(comps));
            let cx = read_f64(r)?;
            let cy = read_f64(r)?;
            let bx0 = read_f64(r)?;
            let by0 = read_f64(r)?;
            let bx1 = read_f64(r)?;
            let by1 = read_f64(r)?;
            if !(bx0 <= bx1 && by0 <= by1) {
                return Err(CodecError::Corrupt("invalid face bbox"));
            }
            let cell_count = read_u32(r)? as usize;
            if cell_count == 0 {
                return Err(CodecError::Corrupt("empty face"));
            }
            faces.push(Face {
                id: FaceId(i as u32),
                centroid: Point::new(cx, cy),
                cell_count,
                bbox: Rect::new(Point::new(bx0, by0), Point::new(bx1, by1)),
            });
        }

        let n_cells = read_u32(r)? as usize;
        if n_cells != grid.cell_count() {
            return Err(CodecError::Corrupt("cell count does not match grid"));
        }
        let mut cell_to_face = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            let v = read_u32(r)?;
            if v as usize >= n_faces {
                return Err(CodecError::Corrupt("cell maps to missing face"));
            }
            cell_to_face.push(v);
        }

        let mut neighbors = Vec::with_capacity(n_faces);
        for _ in 0..n_faces {
            let cnt = read_u32(r)? as usize;
            if cnt > n_faces {
                return Err(CodecError::Corrupt("neighbor count out of range"));
            }
            let mut nbs = Vec::with_capacity(cnt);
            for _ in 0..cnt {
                let v = read_u32(r)?;
                if v as usize >= n_faces {
                    return Err(CodecError::Corrupt("neighbor id out of range"));
                }
                nbs.push(FaceId(v));
            }
            neighbors.push(nbs);
        }

        let mut sig_index = SignatureIndex::default();
        for f in 0..n_faces as u32 {
            let same = |g: u32| planes.components(g as usize) == planes.components(f as usize);
            match sig_index.first.entry(hash_planes(
                planes.plus(f as usize),
                planes.minus(f as usize),
            )) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(f);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    if same(*e.get()) || sig_index.overflow.iter().any(|&g| same(g)) {
                        return Err(CodecError::Corrupt("duplicate signature"));
                    }
                    sig_index.overflow.push(f);
                }
            }
        }
        // Centroids round-trip exactly through the codec (written as raw
        // f64 bits), so a decoded map rebuilds the *same* chunk layout as
        // the one it was encoded from — `SignaturePlanes` stays `Eq`.
        let (chunk_of, super_of) = chunk_assignment(&grid, &faces);
        planes.build_chunks(&chunk_of, &super_of);
        let live = (0..positions.len() as u32).collect();
        Ok(Self {
            grid,
            deployment: positions.clone(),
            positions,
            c,
            faces,
            cell_to_face,
            neighbors,
            sig_index,
            planes,
            epoch: 0,
            live,
            pair_gather: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four sensors in a unit-spaced square grid, like the paper's Fig. 3.
    fn square4() -> Vec<Point> {
        vec![
            Point::new(30.0, 30.0),
            Point::new(70.0, 30.0),
            Point::new(30.0, 70.0),
            Point::new(70.0, 70.0),
        ]
    }

    fn field() -> Rect {
        Rect::square(100.0)
    }

    /// Face `id`'s signature as an owned vector.
    fn sig(map: &FaceMap, id: FaceId) -> SignatureVector {
        SignatureVector::new(map.signature(id).to_vec())
    }

    #[test]
    fn every_cell_is_assigned_and_faces_partition_cells() {
        let map = FaceMap::build(&square4(), field(), 1.15, 2.0);
        let total: usize = map.faces().iter().map(|f| f.cell_count).sum();
        assert_eq!(total, map.grid().cell_count());
        assert!(map.face_count() > 1);
    }

    #[test]
    fn signatures_are_unique_per_face() {
        let map = FaceMap::build(&square4(), field(), 1.15, 2.0);
        let mut seen = std::collections::HashSet::new();
        for f in map.faces() {
            let s = sig(&map, f.id);
            assert!(seen.insert(s.clone()), "duplicate signature {s}");
            assert_eq!(map.find_by_signature(&s), Some(f.id));
        }
    }

    #[test]
    fn face_at_matches_cell_signature() {
        let map = FaceMap::build(&square4(), field(), 1.15, 2.0);
        for (idx, center) in map.grid().iter_centers() {
            let _ = idx;
            let id = map.face_at(center).unwrap();
            assert_eq!(sig(&map, id), map.signature_at(center));
        }
    }

    #[test]
    fn centroids_lie_in_field() {
        let map = FaceMap::build(&square4(), field(), 1.2, 1.0);
        for f in map.faces() {
            assert!(
                field().contains(f.centroid),
                "centroid {} escapes",
                f.centroid
            );
            assert!(f.cell_count > 0);
        }
    }

    #[test]
    fn bisector_division_with_c1_gives_classic_faces() {
        // With C = 1 and 4 square-grid sensors, the four distinct bisector
        // lines through the centre divide the field into the paper's
        // Fig. 3(a) arrangement: 8 *certain* sectors. Cell centres that
        // fall exactly on the two diagonal bisectors produce a handful of
        // extra hairline "boundary" faces with a 0 component — an artifact
        // of the exact symmetric layout, not of the division.
        let map = FaceMap::build(&square4(), field(), 1.0, 0.5);
        assert_eq!(map.certain_face_count(), 8, "classic 4-node grid division");
        let boundary_cells: usize = map
            .faces()
            .iter()
            .filter(|f| !map.is_certain(f.id))
            .map(|f| f.cell_count)
            .sum();
        // Hairline faces cover a vanishing fraction of the field.
        assert!(
            (boundary_cells as f64) < 0.02 * map.grid().cell_count() as f64,
            "boundary faces too fat: {boundary_cells} cells"
        );
    }

    #[test]
    fn growing_c_kills_certain_faces() {
        let small = FaceMap::build(&square4(), field(), 1.05, 1.0);
        let large = FaceMap::build(&square4(), field(), 2.5, 1.0);
        assert!(small.certain_face_count() > 0);
        assert_eq!(
            large.certain_face_count(),
            0,
            "huge C swallows all certain faces (Fig. 3c)"
        );
        assert!(small.certain_face_count() >= large.certain_face_count());
    }

    #[test]
    fn neighbor_relation_is_symmetric_irreflexive() {
        let map = FaceMap::build(&square4(), field(), 1.15, 2.0);
        for f in map.faces() {
            for &nb in map.neighbors(f.id) {
                assert_ne!(nb, f.id, "face neighbors itself");
                assert!(
                    map.neighbors(nb).contains(&f.id),
                    "asymmetric link {} → {nb}",
                    f.id
                );
            }
        }
    }

    /// Theorem 1: with a raster fine enough, most neighbor faces differ by
    /// exactly one signature component by one step. Raster adjacency can
    /// jump two boundaries inside one cell, so we assert the typical case
    /// dominates rather than universality.
    #[test]
    fn neighbor_faces_differ_by_about_one_component() {
        let map = FaceMap::build(&square4(), field(), 1.15, 0.5);
        let mut one_step = 0usize;
        let mut links = 0usize;
        for f in map.faces() {
            for &nb in map.neighbors(f.id) {
                let d2 = sig(&map, f.id).distance_squared(&sig(&map, nb));
                links += 1;
                if d2 <= 1.0 + 1e-12 {
                    one_step += 1;
                }
            }
        }
        assert!(links > 0);
        let frac = one_step as f64 / links as f64;
        assert!(frac > 0.7, "only {frac:.2} of links are single-step");
    }

    #[test]
    fn parallel_build_matches_serial() {
        let serial = FaceMap::build(&square4(), field(), 1.15, 1.0);
        let parallel = FaceMap::build_with_threads(&square4(), field(), 1.15, 1.0, 4);
        assert_eq!(serial.face_count(), parallel.face_count());
        for (a, b) in serial.faces().iter().zip(parallel.faces()) {
            assert_eq!(serial.signature(a.id), parallel.signature(b.id));
            assert_eq!(a.cell_count, b.cell_count);
            assert!((a.centroid.x - b.centroid.x).abs() < 1e-12);
            assert!((a.centroid.y - b.centroid.y).abs() < 1e-12);
        }
    }

    #[test]
    fn center_face_is_valid() {
        let map = FaceMap::build(&square4(), field(), 1.15, 2.0);
        let cf = map.center_face();
        assert!(cf.index() < map.face_count());
    }

    #[test]
    fn finer_raster_refines_centroids_not_structure() {
        let coarse = FaceMap::build(&square4(), field(), 1.15, 4.0);
        let fine = FaceMap::build(&square4(), field(), 1.15, 1.0);
        // Every coarse signature still exists in the fine map.
        let mut found = 0;
        for f in coarse.faces() {
            if fine.find_by_signature(&sig(&coarse, f.id)).is_some() {
                found += 1;
            }
        }
        assert!(found as f64 >= 0.9 * coarse.face_count() as f64);
        // Fine map sees at least as many faces.
        assert!(fine.face_count() >= coarse.face_count());
    }

    #[test]
    fn codec_round_trips_exactly() {
        let map = FaceMap::build(&square4(), field(), 1.15, 2.0);
        let mut bytes = Vec::new();
        map.write_to(&mut bytes).unwrap();
        let back = FaceMap::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.face_count(), map.face_count());
        assert_eq!(back.uncertainty_constant(), map.uncertainty_constant());
        assert_eq!(back.positions(), map.positions());
        for (a, b) in map.faces().iter().zip(back.faces()) {
            assert_eq!(map.signature(a.id), back.signature(b.id));
            assert_eq!(a.cell_count, b.cell_count);
            assert_eq!(a.centroid, b.centroid);
            assert_eq!(a.bbox, b.bbox);
        }
        for f in map.faces() {
            assert_eq!(back.neighbors(f.id), map.neighbors(f.id));
            assert_eq!(back.find_by_signature(&sig(&map, f.id)), Some(f.id));
        }
        // And it matches identically.
        for (_, center) in map.grid().iter_centers().step_by(13) {
            assert_eq!(back.face_at(center), map.face_at(center));
        }
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(matches!(
            FaceMap::read_from(&mut &b"NOTAMAP0rest"[..]),
            Err(CodecError::BadMagic)
        ));
        // Truncated file.
        let map = FaceMap::build(&square4(), field(), 1.15, 4.0);
        let mut bytes = Vec::new();
        map.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(FaceMap::read_from(&mut bytes.as_slice()).is_err());
        // Corrupt a signature byte into an out-of-range value.
        let mut bytes = Vec::new();
        map.write_to(&mut bytes).unwrap();
        // The first signature byte sits right after the fixed header.
        let header = 8 + 6 * 8 + 4 + 4 * 16 + 4;
        bytes[header] = 7;
        assert!(matches!(
            FaceMap::read_from(&mut bytes.as_slice()),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn memory_accounting_scales_with_structure() {
        let small = FaceMap::build(&square4(), field(), 1.15, 4.0);
        let large = FaceMap::build(&square4(), field(), 1.15, 1.0);
        assert!(small.memory_bytes() > 0);
        assert!(
            large.memory_bytes() > small.memory_bytes(),
            "finer raster ⟹ more faces ⟹ more memory"
        );
        // Sanity scale: a 4-node map at 1 m cells stays well under 10 MB.
        assert!(large.memory_bytes() < 10 << 20);
    }

    #[test]
    fn adaptive_matches_full_build_structure() {
        let pos = square4();
        let full = FaceMap::build(&pos, field(), 1.15, 1.0);
        let adaptive = FaceMap::build_adaptive(&pos, field(), 1.15, 4.0, 4, 1);
        assert_eq!(adaptive.grid().cell_size(), 1.0);
        // Every full-build face of meaningful size must exist in the
        // adaptive map (hairline faces inside unrefined cells may be
        // missed — that is the documented approximation).
        let mut found = 0usize;
        let mut meaningful = 0usize;
        for f in full.faces() {
            if f.cell_count >= 4 {
                meaningful += 1;
                if adaptive.find_by_signature(&sig(&full, f.id)).is_some() {
                    found += 1;
                }
            }
        }
        assert!(
            found as f64 >= 0.95 * meaningful as f64,
            "adaptive found {found}/{meaningful} meaningful faces"
        );
    }

    #[test]
    fn adaptive_cells_agree_with_full_build() {
        let pos = square4();
        let full = FaceMap::build(&pos, field(), 1.15, 1.0);
        let adaptive = FaceMap::build_adaptive(&pos, field(), 1.15, 4.0, 4, 2);
        let mut agree = 0usize;
        for (_, center) in full.grid().iter_centers() {
            let a = full.signature(full.face_at(center).unwrap());
            let b = adaptive.signature(adaptive.face_at(center).unwrap());
            if a == b {
                agree += 1;
            }
        }
        let frac = agree as f64 / full.grid().cell_count() as f64;
        assert!(frac > 0.97, "only {frac:.3} of cells agree");
    }

    #[test]
    fn adaptive_partitions_all_cells() {
        let pos = square4();
        let adaptive = FaceMap::build_adaptive(&pos, field(), 1.15, 8.0, 4, 2);
        let total: usize = adaptive.faces().iter().map(|f| f.cell_count).sum();
        assert_eq!(total, adaptive.grid().cell_count());
        // Neighbor symmetry holds for the adaptive map too.
        for f in adaptive.faces() {
            for &nb in adaptive.neighbors(f.id) {
                assert!(adaptive.neighbors(nb).contains(&f.id));
            }
        }
    }

    #[test]
    fn planes_mirror_face_signatures() {
        let map = FaceMap::build(&square4(), field(), 1.15, 2.0);
        assert_eq!(map.planes().face_count(), map.face_count());
        assert_eq!(map.planes().dim(), map.pair_dimension());
        // The codec rebuilds an identical plane arena.
        let mut bytes = Vec::new();
        map.write_to(&mut bytes).unwrap();
        let back = FaceMap::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.planes(), map.planes());
        // And the adaptive builder fills it the same way.
        let adaptive = FaceMap::build_adaptive(&square4(), field(), 1.15, 4.0, 4, 2);
        for f in adaptive.faces() {
            let packed = adaptive.planes().signature(f.id.index());
            assert_eq!(adaptive.find_by_signature(&packed), Some(f.id));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn adaptive_needs_refinement() {
        let _ = FaceMap::build_adaptive(&square4(), field(), 1.15, 4.0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least two sensors")]
    fn single_sensor_rejected() {
        let _ = FaceMap::build(&[Point::ORIGIN], field(), 1.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn sub_unity_constant_rejected() {
        let _ = FaceMap::build(&square4(), field(), 0.5, 1.0);
    }
}
