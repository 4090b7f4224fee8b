//! Exhaustive and heuristic vector matching.
//!
//! Both matchers rank faces by the `*`-aware squared distance
//! `‖V_d − V_s(f)‖²` evaluated with the packed
//! [`SignaturePlanes`](crate::vector::SignaturePlanes) kernel — the
//! sampling vector is packed once per call and compared against every
//! candidate face with branch-free popcount arithmetic. Similarity
//! `S = 1/‖·‖` (Definition 7) is monotone decreasing in the distance, so
//! ranking by squared distance is equivalent and needs the reciprocal
//! square root only once, for the winner. Ties are detected on the exact
//! squared distance, not on the rounded similarity: `1/√d²` maps distinct
//! nearby `d²` values to the same f64, so comparing similarities would
//! fabricate ties that the metric does not have.

use crate::facemap::{FaceId, FaceMap};
use crate::vector::{PackedQuery, SamplingVector};
use wsn_telemetry as telemetry;

/// How a full-accuracy (exhaustive-quality) match is executed.
///
/// Both strategies return **bit-identical** outcomes — same winner, same
/// similarity, same tie set (the `index_differential` suite proves it) —
/// so callers pick purely on performance. Only
/// [`MatchOutcome::evaluated`] differs: the index reports the distance
/// evaluations it actually spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchStrategy {
    /// Linear scan over every face ([`match_exhaustive`]).
    Scan,
    /// Coarse-to-fine descent over the face map's chunk index
    /// ([`match_indexed`]), pruning whole chunks by their envelope lower
    /// bound before any face is scanned.
    #[default]
    Indexed,
}

/// Runs a full-accuracy match under the chosen [`MatchStrategy`].
///
/// # Panics
///
/// Panics if the vector's dimension does not match the map's pair count.
pub fn match_full(map: &FaceMap, v: &SamplingVector, strategy: MatchStrategy) -> MatchOutcome {
    match strategy {
        MatchStrategy::Scan => match_exhaustive(map, v),
        MatchStrategy::Indexed => match_indexed(map, v),
    }
}

/// Result of matching one sampling vector against a face map.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchOutcome {
    /// The matched face (the first face attaining the best similarity).
    pub face: FaceId,
    /// Similarity of the matched face (`f64::INFINITY` for exact matches).
    pub similarity: f64,
    /// All faces attaining the best similarity, including `face` (the
    /// strategy extension averages their centroids on ties, Section 6).
    pub ties: Vec<FaceId>,
    /// Number of similarity evaluations performed.
    pub evaluated: usize,
    /// Hill-climbing rounds (0 for exhaustive matching).
    pub rounds: usize,
}

impl MatchOutcome {
    /// `true` if more than one face attained the maximum similarity.
    pub fn is_tied(&self) -> bool {
        self.ties.len() > 1
    }
}

/// Similarity of the winning squared distance (Definition 7): the one
/// place a reciprocal square root is taken.
#[inline]
fn similarity_of_d2(d2: f64) -> f64 {
    if d2 == 0.0 {
        f64::INFINITY
    } else {
        1.0 / d2.sqrt()
    }
}

/// Maximum-likelihood matching: scans every face, returns the argmax of
/// the similarity with all ties collected.
///
/// # Panics
///
/// Panics if the vector's dimension does not match the map's pair count
/// (they must come from the same deployment).
pub fn match_exhaustive(map: &FaceMap, v: &SamplingVector) -> MatchOutcome {
    assert_eq!(
        v.len(),
        map.pair_dimension(),
        "vector/map pair-dimension mismatch"
    );
    let planes = map.planes();
    let q = PackedQuery::new(v);
    let mut best_d2 = f64::INFINITY;
    let mut ties: Vec<FaceId> = Vec::new();
    for f in 0..map.face_count() {
        let d2 = planes.distance_squared(f, &q);
        if d2 < best_d2 {
            best_d2 = d2;
            ties.clear();
            ties.push(FaceId(f as u32));
        } else if d2 == best_d2 {
            ties.push(FaceId(f as u32));
        }
    }
    let face = *ties
        .first()
        .expect("FaceMap invariant: a built map has at least one face (asserted at construction)");
    if telemetry::enabled() {
        telemetry::counter_add("fttt.match.exhaustive.calls", 1);
        telemetry::counter_add("fttt.match.evaluations", map.face_count() as u64);
        telemetry::observe(
            "fttt.match.tie_width",
            telemetry::COUNT_BUCKETS,
            ties.len() as f64,
        );
    }
    if telemetry::journal_enabled() {
        use telemetry::ArgValue;
        telemetry::trace_instant(
            "fttt.match.exhaustive",
            vec![
                ("face", ArgValue::U64(face.index() as u64)),
                ("evaluated", ArgValue::U64(map.face_count() as u64)),
                ("ties", ArgValue::U64(ties.len() as u64)),
            ],
        );
    }
    MatchOutcome {
        face,
        similarity: similarity_of_d2(best_d2),
        ties,
        evaluated: map.face_count(),
        rounds: 0,
    }
}

/// Histogram buckets for fractions in `[0, 1]` (bound tightness).
const FRACTION_BUCKETS: &[f64] = &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// A frontier node in the best-first descent: an unexpanded super-chunk
/// or an unscanned leaf chunk.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Node {
    Super(u32),
    Leaf(u32),
}

impl Node {
    /// Deterministic tie-break key at equal bound: leaves pop before
    /// supers (a leaf tightens `best_d2` immediately, a super only adds
    /// more frontier), then ascending id.
    fn key(self) -> (u8, u32) {
        match self {
            Node::Leaf(c) => (0, c),
            Node::Super(s) => (1, s),
        }
    }
}

/// An entry in the [`BestFirstFrontier`]: totally ordered by ascending
/// bound, then by [`Node::key`]. Bounds are sums of finite nonnegative
/// terms — never NaN, never `−0.0` — so `total_cmp` agrees with the
/// numeric order.
struct FrontierEntry {
    bound: f64,
    node: Node,
}

impl PartialEq for FrontierEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for FrontierEntry {}

impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FrontierEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| self.node.key().cmp(&other.node.key()))
    }
}

/// Min-priority queue driving the best-first descent in
/// [`match_indexed`]: pops the frontier node with the smallest lower
/// bound first, with a deterministic tie order (see [`FrontierEntry`]).
struct BestFirstFrontier {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<FrontierEntry>>,
}

impl BestFirstFrontier {
    fn with_capacity(n: usize) -> Self {
        Self {
            heap: std::collections::BinaryHeap::with_capacity(n),
        }
    }

    fn push(&mut self, bound: f64, node: Node) {
        self.heap
            .push(std::cmp::Reverse(FrontierEntry { bound, node }));
    }

    fn pop(&mut self) -> Option<(f64, Node)> {
        self.heap
            .pop()
            .map(|std::cmp::Reverse(e)| (e.bound, e.node))
    }
}

/// Coarse-to-fine maximum-likelihood matching over the map's chunk index:
/// bit-identical to [`match_exhaustive`], usually far cheaper.
///
/// The face map groups its faces into a two-level index: small leaf
/// chunks of nearby grid cells nested under coarser super-chunks, each
/// level carrying envelope summaries whose
/// [`chunk_lower_bound`](crate::vector::SignaturePlanes::chunk_lower_bound)
/// (resp. `super_lower_bound`) provably undercuts every member face's
/// squared distance. The matcher bounds all super-chunks first (cheap:
/// there are few), visits them in ascending bound order, and descends a
/// super-chunk only while its bound does not exceed the best distance
/// found so far. Inside a descended super-chunk the leaf bounds are
/// computed on demand, sorted, and faces are scanned exactly only while
/// the leaf bound also stays within the best — once either level's bound
/// exceeds it, everything below is pruned wholesale.
///
/// Correctness of the prune: at each level candidates are visited in
/// ascending bound order and skipped only when `bound > best_d2`. Since
/// the super bound undercuts every member leaf bound, which undercuts
/// `d²(f)` for each member face, and `best_d2` only decreases, no pruned
/// face can beat **or tie** the winner, so the winner, its distance, and
/// the complete tie set are exactly the exhaustive scan's (ties are
/// re-sorted into face order to make the equality literal).
///
/// Both query kinds take this path: ternary bounds are exact integer
/// counts, and extended (Definition 10) bounds are `f64` sums that stay at
/// or below every member face's `f64` distance bit for bit (see
/// [`chunk_lower_bound`](crate::vector::SignaturePlanes::chunk_lower_bound)),
/// so the prune above is exact for both. Only maps without a chunk index
/// fall back to the plain scan — same outcome, linear cost.
///
/// # Panics
///
/// Panics if the vector's dimension does not match the map's pair count.
pub fn match_indexed(map: &FaceMap, v: &SamplingVector) -> MatchOutcome {
    assert_eq!(
        v.len(),
        map.pair_dimension(),
        "vector/map pair-dimension mismatch"
    );
    let planes = map.planes();
    let q = PackedQuery::new(v);
    if !planes.has_chunks() {
        return match_exhaustive(map, v);
    }
    let chunk_count = planes.chunk_count();
    // Bounds never exceed the distances they cover, bit for bit (see
    // above), so every prune below is exact. The descent is *globally*
    // best-first: a single priority queue holds super-chunks and leaf
    // chunks together, ordered by lower bound. Popping a super-chunk
    // pushes its leaf bounds; popping a leaf scans its faces exactly.
    // Because pops come in ascending bound order, the first leaf scanned
    // is the tightest anywhere in the map — `best_d2` snaps to (near)
    // the optimum immediately and the rest of the queue dies on the
    // first pop whose bound exceeds it. Most of the map is pruned
    // without its leaf bounds (let alone faces) ever being touched.
    let mut frontier = BestFirstFrontier::with_capacity(planes.super_count() + 16);
    let mut min_bound = f64::INFINITY;
    for s in 0..planes.super_count() as u32 {
        let b = planes.super_lower_bound(s as usize, &q);
        min_bound = min_bound.min(b);
        frontier.push(b, Node::Super(s));
    }

    let mut best_d2 = f64::INFINITY;
    let mut ties: Vec<FaceId> = Vec::new();
    let mut evaluated = 0usize;
    let mut descended = 0u64;
    let mut scanned = 0u64;
    while let Some((bound, node)) = frontier.pop() {
        // Strict inequality: a bound *equal* to the best could still hide
        // a tie, so such nodes are expanded. Stopping is sound because
        // every remaining node pops with a bound ≥ this one > best, and
        // every face under it has d² ≥ that bound.
        if !ties.is_empty() && bound > best_d2 {
            break;
        }
        match node {
            Node::Super(s) => {
                descended += 1;
                for c in planes.super_chunks(s as usize) {
                    frontier.push(planes.chunk_lower_bound(c, &q), Node::Leaf(c as u32));
                }
            }
            Node::Leaf(c) => {
                scanned += 1;
                for (slot, &f) in planes.chunk_faces(c as usize).iter().enumerate() {
                    evaluated += 1;
                    // Early-exit evaluation against the current best,
                    // streaming the chunk-ordered lane copy of the
                    // planes: a rejected face provably has d² > best and
                    // can neither win nor tie, so the outcome stays
                    // bit-identical to the exhaustive scan.
                    let Some(d2) = planes.chunk_slot_distance_within(c as usize, slot, &q, best_d2)
                    else {
                        continue;
                    };
                    if d2 < best_d2 {
                        best_d2 = d2;
                        ties.clear();
                        ties.push(FaceId(f));
                    } else {
                        // `d2 ≤ best` and not `<` — an exact tie.
                        ties.push(FaceId(f));
                    }
                }
            }
        }
    }
    // Chunks interleave face ids, so restore the exhaustive scan's face
    // order before `ties[0]` picks the winner.
    ties.sort_unstable();
    let face = *ties
        .first()
        .expect("FaceMap invariant: a built map has at least one face (asserted at construction)");
    let pruned = chunk_count as u64 - scanned;
    // How close the cheapest bound came to the true optimum (1 = tight).
    let tightness = if best_d2 > 0.0 {
        min_bound / best_d2
    } else {
        1.0
    };
    if telemetry::enabled() {
        telemetry::counter_add("fttt.match.indexed.calls", 1);
        telemetry::counter_add("fttt.match.evaluations", evaluated as u64);
        telemetry::counter_add("fttt.match.index.chunks_total", chunk_count as u64);
        telemetry::counter_add("fttt.match.index.chunks_scanned", scanned);
        telemetry::counter_add("fttt.match.index.chunks_pruned", pruned);
        telemetry::counter_add("fttt.match.index.supers_descended", descended);
        telemetry::observe(
            "fttt.match.index.bound_tightness",
            FRACTION_BUCKETS,
            tightness,
        );
        telemetry::observe(
            "fttt.match.tie_width",
            telemetry::COUNT_BUCKETS,
            ties.len() as f64,
        );
    }
    if telemetry::journal_enabled() {
        use telemetry::ArgValue;
        telemetry::trace_instant(
            "fttt.match.index",
            vec![
                ("face", ArgValue::U64(face.index() as u64)),
                ("evaluated", ArgValue::U64(evaluated as u64)),
                ("ties", ArgValue::U64(ties.len() as u64)),
                ("chunks", ArgValue::U64(chunk_count as u64)),
                ("scanned", ArgValue::U64(scanned)),
                ("pruned", ArgValue::U64(pruned)),
                ("supers", ArgValue::U64(descended)),
                ("tightness", ArgValue::F64(tightness)),
            ],
        );
    }
    MatchOutcome {
        face,
        similarity: similarity_of_d2(best_d2),
        ties,
        evaluated,
        rounds: 0,
    }
}

/// `[3, 17, 9]` → `"3>17>9"`, elided past `HOP_PATH_DISPLAY_CAP` faces.
fn render_hop_path(path: &[u32]) -> String {
    /// Faces shown before the path is elided; keeps one journal arg
    /// bounded even on pathological climbs across a huge map.
    const HOP_PATH_DISPLAY_CAP: usize = 32;
    let shown: Vec<String> = path
        .iter()
        .take(HOP_PATH_DISPLAY_CAP)
        .map(|f| f.to_string())
        .collect();
    let mut out = shown.join(">");
    if path.len() > HOP_PATH_DISPLAY_CAP {
        out.push_str(&format!(">…+{}", path.len() - HOP_PATH_DISPLAY_CAP));
    }
    out
}

/// Algorithm 2: hill-climbing over neighbor-face links, with bounded
/// plateau traversal.
///
/// Starting from `start` (the previous localization during tracking, or
/// [`FaceMap::center_face`] cold), the search repeatedly moves to strictly
/// better neighbors. The paper's convergence argument (Theorem 1: vector
/// and geographic distance grow together) makes the landscape slope toward
/// the target's face — but with ternary signatures the slope is terraced:
/// wide *plateaus* of equal similarity are common, and a climb that only
/// accepts strict improvement strands on them. The search therefore also
/// walks across equal-similarity faces (breadth-first, bounded by
/// `PLATEAU_BUDGET` expansions since the last strict improvement) to find
/// the next ascent. This keeps the per-localization cost far below the
/// exhaustive scan while recovering its accuracy in practice — the
/// `matching` Criterion bench quantifies both.
///
/// The returned `ties` holds every *visited* face attaining the final
/// similarity (a global tie scan would defeat the point of the heuristic).
///
/// # Panics
///
/// Panics on a vector/map dimension mismatch or a foreign `start` id.
pub fn match_heuristic(map: &FaceMap, v: &SamplingVector, start: FaceId) -> MatchOutcome {
    assert_eq!(
        v.len(),
        map.pair_dimension(),
        "vector/map pair-dimension mismatch"
    );
    assert!(start.index() < map.face_count(), "start face not in map");

    /// Plateau faces expanded without a strict improvement before giving
    /// up. Plateaus wider than this are indistinguishable from the global
    /// tie case, which the tie list already covers.
    const PLATEAU_BUDGET: usize = 64;

    let planes = map.planes();
    let q = PackedQuery::new(v);

    let mut visited = vec![false; map.face_count()];
    visited[start.index()] = true;
    let mut best_d2 = planes.distance_squared(start.index(), &q);
    let mut best_face = start;
    let mut best_ties = vec![start];
    let mut evaluated = 1;
    let mut rounds = 0;
    // Hop path (strict-ascent faces, start included) — only assembled
    // when a trace journal wants it.
    let mut hop_path: Option<Vec<u32>> =
        telemetry::journal_enabled().then(|| vec![start.index() as u32]);

    // Frontier of faces at the current best distance, pending expansion.
    let mut frontier = std::collections::VecDeque::from([start]);
    let mut since_improvement = 0usize;
    let mut plateau_expansions = 0u64;

    while let Some(face) = frontier.pop_front() {
        if since_improvement >= PLATEAU_BUDGET {
            break;
        }
        since_improvement += 1;
        plateau_expansions += 1;
        for &nb in map.neighbors(face) {
            if visited[nb.index()] {
                continue;
            }
            visited[nb.index()] = true;
            let d2 = planes.distance_squared(nb.index(), &q);
            evaluated += 1;
            if d2 < best_d2 {
                // Strict ascent: restart the plateau walk from here.
                best_d2 = d2;
                best_face = nb;
                best_ties.clear();
                best_ties.push(nb);
                frontier.clear();
                frontier.push_back(nb);
                since_improvement = 0;
                rounds += 1;
                if let Some(path) = hop_path.as_mut() {
                    path.push(nb.index() as u32);
                }
            } else if d2 == best_d2 {
                best_ties.push(nb);
                frontier.push_back(nb);
            }
        }
    }

    if telemetry::enabled() {
        telemetry::counter_add("fttt.match.heuristic.calls", 1);
        telemetry::counter_add("fttt.match.evaluations", evaluated as u64);
        telemetry::counter_add(
            "fttt.match.heuristic.plateau_expansions",
            plateau_expansions,
        );
        telemetry::observe(
            "fttt.match.heuristic.rounds",
            telemetry::COUNT_BUCKETS,
            rounds as f64,
        );
        telemetry::observe(
            "fttt.match.tie_width",
            telemetry::COUNT_BUCKETS,
            best_ties.len() as f64,
        );
    }
    if let Some(path) = hop_path {
        use telemetry::ArgValue;
        telemetry::trace_instant(
            "fttt.match.heuristic",
            vec![
                ("start", ArgValue::U64(start.index() as u64)),
                ("face", ArgValue::U64(best_face.index() as u64)),
                ("path", ArgValue::Str(render_hop_path(&path))),
                ("evaluated", ArgValue::U64(evaluated as u64)),
                ("rounds", ArgValue::U64(rounds as u64)),
                ("plateau_expansions", ArgValue::U64(plateau_expansions)),
                ("ties", ArgValue::U64(best_ties.len() as u64)),
            ],
        );
    }
    MatchOutcome {
        face: best_face,
        similarity: similarity_of_d2(best_d2),
        ties: best_ties,
        evaluated,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facemap::FaceMap;
    use crate::vector::{difference_norm_squared, SamplingVector};
    use wsn_geometry::{Point, Rect};

    fn square4() -> Vec<Point> {
        vec![
            Point::new(30.0, 30.0),
            Point::new(70.0, 30.0),
            Point::new(30.0, 70.0),
            Point::new(70.0, 70.0),
        ]
    }

    fn map() -> FaceMap {
        FaceMap::build(&square4(), Rect::square(100.0), 1.15, 1.0)
    }

    /// Face `id`'s signature as sampling-vector components.
    fn components(m: &FaceMap, id: FaceId) -> Vec<Option<f64>> {
        m.signature(id).iter().map(|&c| Some(c as f64)).collect()
    }

    /// The sampling vector that reads exactly face `id`'s signature.
    fn exact(m: &FaceMap, id: FaceId) -> SamplingVector {
        SamplingVector::new(components(m, id))
    }

    /// The exact signature of a face must match back to that face with
    /// infinite similarity.
    #[test]
    fn exhaustive_finds_exact_faces() {
        let m = map();
        for f in m.faces().iter().take(50) {
            let v = exact(&m, f.id);
            let out = match_exhaustive(&m, &v);
            assert_eq!(out.face, f.id);
            assert_eq!(out.similarity, f64::INFINITY);
            assert_eq!(
                out.ties,
                vec![f.id],
                "signatures are unique, no ties possible"
            );
        }
    }

    /// Degenerate map: two sensors so far away that the whole field sits in
    /// one face. Both matchers must return that face instead of hitting the
    /// old `ties[0]` index path unguarded.
    #[test]
    fn degenerate_one_face_map_matches() {
        let far = vec![Point::new(10_000.0, 50.0), Point::new(10_010.0, 50.0)];
        let m = FaceMap::build(&far, Rect::square(100.0), 1.15, 5.0);
        assert_eq!(
            m.face_count(),
            1,
            "far-away pair leaves the field undivided"
        );
        let f = &m.faces()[0];
        let v = exact(&m, f.id);
        let out = match_exhaustive(&m, &v);
        assert_eq!(out.face, f.id);
        assert_eq!(out.ties, vec![f.id]);
        assert_eq!(out.evaluated, 1);
        // A vector disagreeing with the lone signature still matches it —
        // there is nothing else to return, and no panic.
        let off = SamplingVector::new(vec![Some(1.0); v.len()]);
        let worst = match_exhaustive(&m, &off);
        assert_eq!(worst.face, f.id);
        let heur = match_heuristic(&m, &v, f.id);
        assert_eq!(heur.face, f.id);
    }

    #[test]
    fn exhaustive_visits_every_face() {
        let m = map();
        let f0 = &m.faces()[0];
        let v = exact(&m, f0.id);
        let out = match_exhaustive(&m, &v);
        assert_eq!(out.evaluated, m.face_count());
        assert_eq!(out.rounds, 0);
    }

    /// A perturbed signature (one component toggled) must still land on a
    /// face at distance 1 — maximum-likelihood matching at work.
    #[test]
    fn exhaustive_ml_on_perturbed_vector() {
        let m = map();
        let mut comps = components(&m, m.center_face());
        // Toggle the first 0 component to 1 (or flip a 1 to 0).
        let idx = comps.iter().position(|c| *c == Some(0.0)).unwrap_or(0);
        comps[idx] = Some(if comps[idx] == Some(0.0) { 1.0 } else { 0.0 });
        let v = SamplingVector::new(comps);
        let out = match_exhaustive(&m, &v);
        // The original face is within distance 1, so the winner's
        // similarity is at least 1.
        assert!(out.similarity >= 1.0);
    }

    #[test]
    fn exhaustive_agrees_with_scalar_reference() {
        let m = map();
        // An extended vector with no exact match: the winner must be the
        // scalar argmin of ‖V_d − V_s(f)‖², with the similarity computed
        // from exactly that squared distance.
        let comps: Vec<Option<f64>> = m
            .signature(m.center_face())
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if i % 7 == 3 {
                    None
                } else {
                    Some((c as f64) * 0.75)
                }
            })
            .collect();
        let v = SamplingVector::new(comps);
        let out = match_exhaustive(&m, &v);
        let (mut arg, mut best) = (0usize, f64::INFINITY);
        for i in 0..m.face_count() {
            let d2 = difference_norm_squared(&v, &m.planes().signature(i));
            if d2 < best {
                best = d2;
                arg = i;
            }
        }
        assert_eq!(out.face.index(), arg);
        assert_eq!(out.similarity, 1.0 / best.sqrt());
    }

    /// Regression: ties must be detected on the squared distance, not the
    /// rounded similarity. Once d² is large enough that the `r³/2` slope
    /// of `1/√d²` drops below half an ulp, distinct nearby d² values map
    /// to the *same* f64 similarity, and the old `s == best` comparison
    /// reported faces at strictly different distances as ties.
    ///
    /// The witness vector puts every component near 0.5 with sub-ulp
    /// per-index jitter: every face then sits at d² ≈ 0.25·dim + 2·m
    /// (m = count of −1 components), separated only by the jitter's
    /// cross terms — a cluster of d² values a few ulps apart whose
    /// reciprocal square roots collapse onto one f64.
    #[test]
    fn near_equal_distances_are_not_ties() {
        let m = map();
        let dim = m.pair_dimension();
        let mut witness = None;
        'search: for base in [0.5f64, 0.45, 0.55] {
            for scale in [-55i32, -54, -56, -53] {
                for stride in [1usize, 3, 5] {
                    let e = 2.0f64.powi(scale);
                    let comps: Vec<Option<f64>> = (0..dim)
                        .map(|i| Some(base + ((i * stride) % 8) as f64 * e))
                        .collect();
                    let v = SamplingVector::new(comps);
                    let scored: Vec<f64> = (0..m.face_count())
                        .map(|f| difference_norm_squared(&v, &m.planes().signature(f)))
                        .collect();
                    let d2min = scored.iter().cloned().fold(f64::INFINITY, f64::min);
                    let rmin = (1.0 / d2min.sqrt()).to_bits();
                    let dset: Vec<FaceId> = (0..scored.len())
                        .filter(|&i| scored[i] == d2min)
                        .map(|i| FaceId(i as u32))
                        .collect();
                    let rset: Vec<FaceId> = (0..scored.len())
                        .filter(|&i| (1.0 / scored[i].sqrt()).to_bits() == rmin)
                        .map(|i| FaceId(i as u32))
                        .collect();
                    if rset.len() > dset.len() {
                        witness = Some((v, d2min, dset, rset));
                        break 'search;
                    }
                }
            }
        }
        let (v, d2min, dset, rset) = witness.expect("no 1/sqrt collision witness found");
        let out = match_exhaustive(&m, &v);
        assert_eq!(
            out.ties,
            dset,
            "ties must be exactly the d² argmin set, not the {} faces with equal similarity",
            rset.len()
        );
        assert_eq!(out.face, dset[0]);
        assert_eq!(out.similarity, 1.0 / d2min.sqrt());
    }

    #[test]
    fn heuristic_converges_to_exhaustive_result_from_anywhere() {
        let m = map();
        // Use an exact face signature: global optimum is unique, and the
        // landscape of Theorem 1 should funnel the walk there from any
        // start.
        let target = m.face_at(Point::new(52.0, 48.0)).unwrap();
        let f = m.face(target);
        let v = exact(&m, f.id);
        let exhaustive = match_exhaustive(&m, &v);
        let mut converged = 0;
        let starts = [0usize, 1, m.face_count() / 2, m.face_count() - 1];
        for &s in &starts {
            let out = match_heuristic(&m, &v, FaceId(s as u32));
            if out.face == exhaustive.face {
                converged += 1;
            }
        }
        // Hill climbing may stall on rare plateaus; from most starts it
        // must reach the optimum.
        assert!(converged >= 3, "only {converged}/4 starts converged");
    }

    #[test]
    fn heuristic_warm_start_is_cheap() {
        let m = map();
        let target = m.center_face();
        let f = m.face(target);
        let v = exact(&m, f.id);
        // Warm start at the answer: zero rounds, evaluates only the
        // neighborhood.
        let out = match_heuristic(&m, &v, target);
        assert_eq!(out.face, target);
        assert_eq!(out.rounds, 0);
        assert!(out.evaluated <= 1 + m.neighbors(target).len());
        assert!(out.evaluated < m.face_count());
    }

    #[test]
    fn heuristic_from_neighbor_takes_one_round() {
        let m = map();
        let target = m.center_face();
        let f = m.face(target);
        let v = exact(&m, f.id);
        let nb = m.neighbors(target)[0];
        let out = match_heuristic(&m, &v, nb);
        assert_eq!(out.face, target);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn all_star_vector_ties_everything_exhaustively() {
        let m = map();
        let v = SamplingVector::new(vec![None; m.pair_dimension()]);
        let out = match_exhaustive(&m, &v);
        assert_eq!(out.ties.len(), m.face_count());
        assert!(out.is_tied());
    }

    /// Outcome equality on every probe kind the suite uses elsewhere:
    /// exact signatures, perturbed signatures, and the all-star vector.
    /// (`index_differential` does this at scale; this is the in-crate
    /// smoke check.)
    #[test]
    fn indexed_matches_exhaustive_outcomes() {
        let m = map();
        assert!(m.planes().has_chunks(), "built maps carry a chunk index");
        let mut probes: Vec<SamplingVector> = m
            .faces()
            .iter()
            .step_by(7)
            .map(|f| exact(&m, f.id))
            .collect();
        let mut comps = components(&m, m.center_face());
        comps[0] = Some(if comps[0] == Some(0.0) { 1.0 } else { 0.0 });
        comps[5] = None;
        probes.push(SamplingVector::new(comps));
        probes.push(SamplingVector::new(vec![None; m.pair_dimension()]));
        for v in &probes {
            let ex = match_exhaustive(&m, v);
            let ix = match_indexed(&m, v);
            assert_eq!(ix.face, ex.face);
            assert_eq!(ix.similarity.to_bits(), ex.similarity.to_bits());
            assert_eq!(ix.ties, ex.ties);
            assert!(
                ix.evaluated <= ex.evaluated,
                "the index never evaluates more faces than the scan"
            );
        }
    }

    /// A unique exact match prunes hard: the winning chunk's bound is 0
    /// and every other chunk's bound is ≥ 1, so only chunks containing a
    /// zero-distance candidate are ever scanned.
    #[test]
    fn indexed_prunes_on_exact_match() {
        let m = map();
        let f = m.face(m.center_face()).clone();
        let v = exact(&m, f.id);
        let out = match_indexed(&m, &v);
        assert_eq!(out.face, f.id);
        assert_eq!(out.similarity, f64::INFINITY);
        assert!(
            out.evaluated < m.face_count(),
            "evaluated {} of {} faces — no pruning happened",
            out.evaluated,
            m.face_count()
        );
    }

    /// Extended (non-ternary) queries descend the index like ternary
    /// ones: a query near one face's signature, with fractional and `*`
    /// components, matches exactly as the scan does while evaluating only
    /// part of the map.
    #[test]
    fn indexed_extended_query_prunes_and_matches_scan() {
        let m = map();
        let sig = m.signature(m.center_face());
        let comps: Vec<Option<f64>> = sig
            .iter()
            .enumerate()
            .map(|(i, &c)| match i % 3 {
                2 => None,
                1 => Some(c as f64 * 0.8 + 0.1),
                _ => Some(c as f64),
            })
            .collect();
        let v = SamplingVector::new(comps);
        assert!(!PackedQuery::new(&v).is_packed_ternary());
        let ex = match_exhaustive(&m, &v);
        let ix = match_indexed(&m, &v);
        assert_eq!(ix.face, ex.face);
        assert_eq!(ix.similarity.to_bits(), ex.similarity.to_bits());
        assert_eq!(ix.ties, ex.ties);
        assert!(
            ix.evaluated < m.face_count(),
            "evaluated {} of {} faces — no pruning happened",
            ix.evaluated,
            m.face_count()
        );
    }

    /// `match_full` is a pure dispatcher.
    #[test]
    fn match_full_dispatches_both_strategies() {
        let m = map();
        let v = SamplingVector::new(vec![None; m.pair_dimension()]);
        let scan = match_full(&m, &v, MatchStrategy::Scan);
        let indexed = match_full(&m, &v, MatchStrategy::Indexed);
        assert_eq!(scan, match_exhaustive(&m, &v));
        assert_eq!(indexed, match_indexed(&m, &v));
        assert_eq!(MatchStrategy::default(), MatchStrategy::Indexed);
    }

    /// One-face degenerate map through the indexed path.
    #[test]
    fn indexed_degenerate_one_face_map() {
        let far = vec![Point::new(10_000.0, 50.0), Point::new(10_010.0, 50.0)];
        let m = FaceMap::build(&far, Rect::square(100.0), 1.15, 5.0);
        assert_eq!(m.face_count(), 1);
        let v = SamplingVector::new(vec![Some(1.0)]);
        let out = match_indexed(&m, &v);
        assert_eq!(out.face, m.faces()[0].id);
        assert_eq!(out.ties, vec![m.faces()[0].id]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_rejected() {
        let m = map();
        let v = SamplingVector::from_ternary(vec![Some(1)]);
        let _ = match_exhaustive(&m, &v);
    }

    #[test]
    fn hop_path_renders_and_elides() {
        assert_eq!(render_hop_path(&[7]), "7");
        assert_eq!(render_hop_path(&[3, 17, 9]), "3>17>9");
        let long: Vec<u32> = (0..40).collect();
        let rendered = render_hop_path(&long);
        assert!(rendered.starts_with("0>1>2>"));
        assert!(rendered.ends_with(">…+8"), "got {rendered}");
    }
}
