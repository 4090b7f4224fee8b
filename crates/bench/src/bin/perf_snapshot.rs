//! Performance snapshot of the packed signature-plane kernels.
//!
//! Times face-map construction (serial / parallel / adaptive) and matching
//! throughput at n ∈ {10, 20, 40} against in-binary *scalar reference*
//! implementations of the seed's code paths, then match throughput alone
//! at the scale rows n ∈ {100, 200} (cell 0.5 m, ~4×10⁴ faces each) where
//! the coarse-to-fine chunk index has to deliver sublinear full-accuracy
//! matching — `indexed` (steady-state mean) and `indexed_p99` (worst
//! percentile over a 10×10 grid of probe targets) are gated alongside the
//! linear scan, and `indexed_ext` / `indexed_ext_p99` gate the same two
//! numbers for extended (Definition 10) vectors of the same samplings:
//!
//! * build reference — a faithful port of the seed's serial
//!   `FaceMap::build`: rasterize all rows into per-cell `SignatureVector`
//!   heap allocations via [`signature_of`], then group by hashing the full
//!   vector (one clone per cell), accumulate centroids/bboxes, construct
//!   faces and run the neighbor-link pass;
//! * match reference — the seed's exhaustive scan: per face one
//!   `difference_norm_squared` plus a `1/√d²`, tracking the max similarity.
//!
//! The `sampling` rows time Algorithm 1 itself — a grouping sampling to
//! its packed basic / extended vector, per vector over the probe
//! groupings — at the served shape (n = 10, cell 2 m) and the campaign
//! shape (n = 30, cell 2 m).
//!
//! A final `map_repair_us` row times the live-churn path at n = 40,
//! cell 4 m: the median single-node death + revive repair, incremental
//! (gated sub-millisecond) against the rebuild-per-event control
//! (ungated — it normalizes the speedup story). Repair cost scales
//! linearly with grid cell count, so the gated point is the finest
//! n = 40 geometry that holds the interactive sub-ms budget with margin
//! on a shared box; DESIGN.md records the full cell-size scaling.
//!
//! Writes a table to stdout and `BENCH_core.json` at the repository root,
//! one [`fttt_bench::gate`] row per `(layer, shape, metric)`: layers
//! `facemap` (face count), `build` (ms), `matching` (µs), `speedup` (×),
//! `sampling` (µs) and `repair` (µs), shapes `n=…,cell=…`.
//!
//! With `--check BASELINE.json` the binary runs the same workload but,
//! instead of writing the artifact, diffs the fresh timings against the
//! committed baseline through [`fttt_bench::gate::run`] and exits nonzero
//! on any regression beyond tolerance — the bench-trajectory gate.

use fttt::facemap::{signature_of, FaceMap, RepairMode};
use fttt::matching::{match_exhaustive, match_heuristic, match_indexed};
use fttt::replay::digest_hex;
use fttt::sampling::{basic_sampling_vector, extended_sampling_vector};
use fttt::vector::{difference_norm_squared, SamplingVector, SignatureVector};
use fttt_bench::{gate, Cli, Table};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;
use wsn_geometry::{CellIndex, Grid, Point, Rect};
use wsn_network::{Deployment, GroupSampler, GroupSampling, SensorField};
use wsn_signal::{uncertainty_constant, PathLossModel};
use wsn_telemetry::json::JsonValue;

struct Setup {
    positions: Vec<Point>,
    field: Rect,
    c: f64,
    cell: f64,
    map: FaceMap,
    vector: SamplingVector,
    /// The extended vector of the same grouping sampling as `vector`.
    vector_ext: SamplingVector,
    truth: Point,
    /// Sampling vectors from a 10×10 grid of probe targets — the p99
    /// population (one steady-state query per distinct target position).
    probes: Vec<SamplingVector>,
    /// The extended vectors of the same probe samplings.
    probes_ext: Vec<SamplingVector>,
    /// The probe samplings themselves.
    probe_groups: Vec<GroupSampling>,
}

/// A seeded random deployment on the 100 m field, its face map at `cell`,
/// one sampling vector at a fixed target and a grid of probe vectors, each
/// in both the basic and the extended form.
fn setup(n: usize, seed: u64, cell: f64) -> Setup {
    let field = Rect::square(100.0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let deployment = Deployment::random_uniform(n, field, &mut rng);
    let sensor_field = SensorField::new(deployment, 200.0);
    let c = uncertainty_constant(1.0, 4.0, 6.0);
    let positions = sensor_field.deployment().positions();
    let map = FaceMap::build(&positions, field, c, cell);
    let sampler = GroupSampler::new(PathLossModel::paper_default(), 5);
    let truth = Point::new(47.0, 53.0);
    let group = sampler.sample(&sensor_field, truth, &mut rng);
    let probe_groups: Vec<_> = (0..10)
        .flat_map(|i| {
            (0..10).map(move |j| Point::new(5.0 + 10.0 * i as f64, 5.0 + 10.0 * j as f64))
        })
        .map(|p| sampler.sample(&sensor_field, p, &mut rng))
        .collect();
    Setup {
        positions,
        field,
        c,
        cell,
        map,
        vector: basic_sampling_vector(&group),
        vector_ext: extended_sampling_vector(&group),
        truth,
        probes: probe_groups.iter().map(basic_sampling_vector).collect(),
        probes_ext: probe_groups.iter().map(extended_sampling_vector).collect(),
        probe_groups,
    }
}

/// Faithful port of the seed's serial `FaceMap::build` (commit db07e20):
/// one `SignatureVector` allocation per cell, `HashMap<SignatureVector, _>`
/// grouping with a `sig.clone()` per new face, centroid/bbox accumulation,
/// face construction, and the right/up neighbor-link pass. Returns the face
/// count so the optimizer cannot discard the work.
fn scalar_reference_build(positions: &[Point], field: Rect, c: f64, cell_size: f64) -> usize {
    struct RefFace {
        signature: SignatureVector,
        centroid: Point,
        cell_count: usize,
        bbox: Rect,
    }
    let grid = Grid::cover(field, cell_size);
    // Phase 1, as in the seed: rasterize every row into heap signatures
    // (all of them live at once) before any grouping happens.
    let row_sigs: Vec<Vec<SignatureVector>> = (0..grid.ny())
        .map(|iy| {
            (0..grid.nx())
                .map(|ix| signature_of(grid.center(CellIndex::new(ix, iy)), positions, c))
                .collect()
        })
        .collect();
    // Phase 2, the seed's `from_row_signatures`.
    let mut by_signature: HashMap<SignatureVector, u32> = HashMap::new();
    let mut cell_to_face = vec![0u32; grid.cell_count()];
    let mut sums: Vec<(f64, f64, usize)> = Vec::new();
    let mut boxes: Vec<Rect> = Vec::new();
    let mut signatures: Vec<SignatureVector> = Vec::new();
    for (iy, row) in row_sigs.into_iter().enumerate() {
        for (ix, sig) in row.into_iter().enumerate() {
            let idx = CellIndex::new(ix as u32, iy as u32);
            let center = grid.center(idx);
            let next_id = sums.len() as u32;
            let id = *by_signature.entry(sig.clone()).or_insert_with(|| {
                sums.push((0.0, 0.0, 0));
                boxes.push(Rect::point(center));
                signatures.push(sig);
                next_id
            });
            let s = &mut sums[id as usize];
            s.0 += center.x;
            s.1 += center.y;
            s.2 += 1;
            boxes[id as usize] = boxes[id as usize].union_point(center);
            cell_to_face[grid.linear(idx)] = id;
        }
    }
    let faces: Vec<RefFace> = signatures
        .into_iter()
        .enumerate()
        .map(|(i, signature)| {
            let (sx, sy, count) = sums[i];
            RefFace {
                signature,
                centroid: Point::new(sx / count as f64, sy / count as f64),
                cell_count: count,
                bbox: boxes[i],
            }
        })
        .collect();
    let mut neighbor_sets: Vec<Vec<u32>> = vec![Vec::new(); faces.len()];
    for lin in 0..grid.cell_count() {
        let idx = grid.from_linear(lin);
        let here = cell_to_face[lin];
        for nb in grid.neighbors4(idx) {
            if nb.ix <= idx.ix && nb.iy <= idx.iy {
                continue;
            }
            let there = cell_to_face[grid.linear(nb)];
            if there != here {
                neighbor_sets[here as usize].push(there);
                neighbor_sets[there as usize].push(here);
            }
        }
    }
    for set in &mut neighbor_sets {
        set.sort_unstable();
        set.dedup();
    }
    std::hint::black_box((
        &faces.last().map(|f| (f.centroid, f.cell_count, f.bbox)),
        &neighbor_sets,
    ));
    faces.iter().map(|f| f.signature.len().min(1)).sum()
}

/// The seed's exhaustive matcher: scalar distance and a `1/√d²` per face,
/// over per-face signature vectors (`signatures[f]` is face `f`'s).
fn scalar_reference_match(signatures: &[SignatureVector], v: &SamplingVector) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for sig in signatures {
        let d2 = difference_norm_squared(v, sig);
        let s = if d2 == 0.0 {
            f64::INFINITY
        } else {
            1.0 / d2.sqrt()
        };
        if s > best {
            best = s;
        }
    }
    best
}

/// One timed call of `f`, in milliseconds.
fn time_once_ms<T>(f: &mut impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Interleaved minimum-of-rounds timing: each round times every candidate
/// once, and each candidate reports its fastest round. Back-to-back
/// averaging would hand whichever candidate runs later the machine's
/// accumulated noise (frequency scaling, neighbors on a shared box); the
/// interleaved minimum approximates each candidate's uncontended cost.
fn time_interleaved_ms<T>(rounds: usize, fs: &mut [&mut dyn FnMut() -> T]) -> Vec<f64> {
    // One untimed warmup each: page in code and data.
    for f in fs.iter_mut() {
        std::hint::black_box(f());
    }
    let mut best = vec![f64::INFINITY; fs.len()];
    for _ in 0..rounds {
        for (b, f) in best.iter_mut().zip(fs.iter_mut()) {
            *b = b.min(time_once_ms(f));
        }
    }
    best
}

/// Build timings, present only on the full (small-n) rows — the scale
/// rows build once, untimed, and gate match throughput alone.
struct BuildCols {
    ref_ms: f64,
    serial_ms: f64,
    parallel_ms: f64,
    adaptive_ms: f64,
}

struct Row {
    n: usize,
    faces: usize,
    cell_m: f64,
    build: Option<BuildCols>,
    match_ref_us: Option<f64>,
    match_packed_us: f64,
    match_heur_us: f64,
    match_indexed_us: f64,
    match_indexed_p99_us: f64,
    match_indexed_ext_us: f64,
    match_indexed_ext_p99_us: f64,
}

/// The `sampling` rows: Algorithm 1 from a grouping sampling to its packed
/// vector, µs per vector.
struct SamplingRow {
    n: usize,
    cell_m: f64,
    basic_us: f64,
    ext_us: f64,
}

/// Per-probe minimum-of-rounds single-match timings, 99th percentile, µs.
/// Each probe is timed individually (no batching) because a percentile of
/// batch means would launder slow outliers away — the p99 target is about
/// the worst realistic query, not the average one.
fn indexed_p99_us(map: &FaceMap, probes: &[SamplingVector], rounds: usize) -> f64 {
    for v in probes {
        std::hint::black_box(match_indexed(map, v));
    }
    let mut per = vec![f64::INFINITY; probes.len()];
    for _ in 0..rounds.max(1) {
        for (best, v) in per.iter_mut().zip(probes) {
            let t0 = Instant::now();
            std::hint::black_box(match_indexed(map, v));
            *best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    per.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let idx = ((per.len() as f64) * 0.99).ceil() as usize;
    per[idx.saturating_sub(1).min(per.len() - 1)]
}

/// The `map_repair_us` row: live-churn repair latency at the campaign
/// geometry.
struct RepairRow {
    n: usize,
    faces: usize,
    cell_m: f64,
    /// Repair events behind each median (death + revive per node).
    events: usize,
    incremental_median_us: f64,
    rebuild_median_us: f64,
}

/// Median best-of-rounds latency of one single-node repair under `mode`.
///
/// Each event kills a node and then revives it, timing the two repairs
/// separately — the map returns to its pre-event content (incremental
/// repair is bit-identical to a fresh build of the live set), so events
/// are independent and the map never drifts across rounds.
fn repair_median_us(map: &mut FaceMap, nodes: usize, mode: RepairMode, rounds: usize) -> f64 {
    // One untimed warmup pass: page in the repair scratch and planes.
    for node in 0..nodes {
        std::hint::black_box(map.kill_node(node, mode));
        std::hint::black_box(map.revive_node(node, mode));
    }
    let mut best = vec![f64::INFINITY; 2 * nodes];
    for _ in 0..rounds.max(1) {
        for node in 0..nodes {
            let t0 = Instant::now();
            std::hint::black_box(map.kill_node(node, mode));
            best[2 * node] = best[2 * node].min(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            std::hint::black_box(map.revive_node(node, mode));
            best[2 * node + 1] = best[2 * node + 1].min(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    best.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    best[best.len() / 2]
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    // Fail on an unreadable baseline now, not after minutes of timing.
    let baseline = match cli.check.as_deref().map(gate::read_baseline).transpose() {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let build_rounds = if cli.fast { 2 } else { 24 };
    let match_rounds = if cli.fast { 2 } else { 16 };
    let match_batch = if cli.fast { 10 } else { 30 };
    // Scale rows: a single linear scan is tens of milliseconds, so small
    // batches and few rounds keep the snapshot's wall time sane.
    let big_match_rounds = if cli.fast { 2 } else { 6 };
    let big_match_batch = if cli.fast { 1 } else { 3 };
    let p99_rounds = if cli.fast { 1 } else { 3 };
    let threads = wsn_parallel::recommended_threads();

    let mut rows = Vec::new();
    let mut table = Table::new(
        "Packed-kernel performance snapshot (100×100 m²; n ≤ 40 @ cell 1 m, n ≥ 100 @ cell 0.5 m)",
        &[
            "n",
            "faces",
            "build ref (ms)",
            "build serial (ms)",
            "build par (ms)",
            "build adaptive (ms)",
            "match ref (µs)",
            "match packed (µs)",
            "heur warm (µs)",
            "match idx (µs)",
            "idx p99 (µs)",
            "idx ext (µs)",
            "ext p99 (µs)",
        ],
    );

    for n in [10usize, 20, 40] {
        let s = setup(n, 7, 1.0);
        let build = time_interleaved_ms(
            build_rounds,
            &mut [
                &mut || {
                    scalar_reference_build(&s.positions, s.field, s.c, s.cell);
                },
                &mut || {
                    FaceMap::build(&s.positions, s.field, s.c, s.cell);
                },
                &mut || {
                    FaceMap::build_with_threads(&s.positions, s.field, s.c, s.cell, threads);
                },
                &mut || {
                    FaceMap::build_adaptive(&s.positions, s.field, s.c, 4.0, 4, threads);
                },
            ],
        );
        let build_cols = BuildCols {
            ref_ms: build[0],
            serial_ms: build[1],
            parallel_ms: build[2],
            adaptive_ms: build[3],
        };

        // Matches are microsecond-scale, so each timed round is a batch.
        let warm = s.map.face_at(s.truth).unwrap();
        let signatures: Vec<SignatureVector> = (0..s.map.face_count())
            .map(|f| s.map.planes().signature(f))
            .collect();
        let batch = |r: f64| r / match_batch as f64 * 1e3;
        let matches = time_interleaved_ms(
            match_rounds,
            &mut [
                &mut || {
                    for _ in 0..match_batch {
                        std::hint::black_box(scalar_reference_match(&signatures, &s.vector));
                    }
                },
                &mut || {
                    for _ in 0..match_batch {
                        std::hint::black_box(match_exhaustive(&s.map, &s.vector));
                    }
                },
                &mut || {
                    for _ in 0..match_batch {
                        std::hint::black_box(match_heuristic(&s.map, &s.vector, warm));
                    }
                },
                &mut || {
                    for _ in 0..match_batch {
                        std::hint::black_box(match_indexed(&s.map, &s.vector));
                    }
                },
                &mut || {
                    for _ in 0..match_batch {
                        std::hint::black_box(match_indexed(&s.map, &s.vector_ext));
                    }
                },
            ],
        );
        let (match_ref_us, match_packed_us, match_heur_us, match_indexed_us) = (
            batch(matches[0]),
            batch(matches[1]),
            batch(matches[2]),
            batch(matches[3]),
        );
        let match_indexed_ext_us = batch(matches[4]);
        let match_indexed_p99_us = indexed_p99_us(&s.map, &s.probes, p99_rounds);
        let match_indexed_ext_p99_us = indexed_p99_us(&s.map, &s.probes_ext, p99_rounds);

        table.row(&[
            n.to_string(),
            s.map.face_count().to_string(),
            format!("{:.1}", build_cols.ref_ms),
            format!("{:.1}", build_cols.serial_ms),
            format!("{:.1}", build_cols.parallel_ms),
            format!("{:.1}", build_cols.adaptive_ms),
            format!("{match_ref_us:.1}"),
            format!("{match_packed_us:.1}"),
            format!("{match_heur_us:.1}"),
            format!("{match_indexed_us:.1}"),
            format!("{match_indexed_p99_us:.1}"),
            format!("{match_indexed_ext_us:.1}"),
            format!("{match_indexed_ext_p99_us:.1}"),
        ]);
        rows.push(Row {
            n,
            faces: s.map.face_count(),
            cell_m: s.cell,
            build: Some(build_cols),
            match_ref_us: Some(match_ref_us),
            match_packed_us,
            match_heur_us,
            match_indexed_us,
            match_indexed_p99_us,
            match_indexed_ext_us,
            match_indexed_ext_p99_us,
        });
        eprintln!("[perf_snapshot] n = {n} done");
    }

    // Scale rows: ~4×10⁴ faces each (~10⁵ combined). The build runs once,
    // untimed; only match throughput is recorded and gated, with the
    // chunk index expected to hold exhaustive-quality matching under 1 ms
    // at the 99th percentile.
    for n in [100usize, 200] {
        let s = setup(n, 7, 0.5);
        let warm = s.map.face_at(s.truth).unwrap();
        let batch = |r: f64| r / big_match_batch as f64 * 1e3;
        let matches = time_interleaved_ms(
            big_match_rounds,
            &mut [
                &mut || {
                    for _ in 0..big_match_batch {
                        std::hint::black_box(match_exhaustive(&s.map, &s.vector));
                    }
                },
                &mut || {
                    for _ in 0..big_match_batch {
                        std::hint::black_box(match_heuristic(&s.map, &s.vector, warm));
                    }
                },
                &mut || {
                    for _ in 0..big_match_batch {
                        std::hint::black_box(match_indexed(&s.map, &s.vector));
                    }
                },
                &mut || {
                    for _ in 0..big_match_batch {
                        std::hint::black_box(match_indexed(&s.map, &s.vector_ext));
                    }
                },
            ],
        );
        let (match_packed_us, match_heur_us, match_indexed_us, match_indexed_ext_us) = (
            batch(matches[0]),
            batch(matches[1]),
            batch(matches[2]),
            batch(matches[3]),
        );
        let match_indexed_p99_us = indexed_p99_us(&s.map, &s.probes, p99_rounds);
        let match_indexed_ext_p99_us = indexed_p99_us(&s.map, &s.probes_ext, p99_rounds);

        table.row(&[
            n.to_string(),
            s.map.face_count().to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{match_packed_us:.1}"),
            format!("{match_heur_us:.1}"),
            format!("{match_indexed_us:.1}"),
            format!("{match_indexed_p99_us:.1}"),
            format!("{match_indexed_ext_us:.1}"),
            format!("{match_indexed_ext_p99_us:.1}"),
        ]);
        rows.push(Row {
            n,
            faces: s.map.face_count(),
            cell_m: s.cell,
            build: None,
            match_ref_us: None,
            match_packed_us,
            match_heur_us,
            match_indexed_us,
            match_indexed_p99_us,
            match_indexed_ext_us,
            match_indexed_ext_p99_us,
        });
        eprintln!("[perf_snapshot] n = {n} done");
    }

    // Algorithm 1 alone, at the served and the campaign shapes: each
    // timed round builds the vectors of all 100 probe groupings.
    let sampling_rounds = if cli.fast { 2 } else { 16 };
    let sampling: Vec<SamplingRow> = [10usize, 30]
        .into_iter()
        .map(|n| {
            let s = setup(n, 7, 2.0);
            let per_vector = |ms: f64| ms / s.probe_groups.len() as f64 * 1e3;
            let t = time_interleaved_ms(
                sampling_rounds,
                &mut [
                    &mut || {
                        for g in &s.probe_groups {
                            std::hint::black_box(basic_sampling_vector(g));
                        }
                    },
                    &mut || {
                        for g in &s.probe_groups {
                            std::hint::black_box(extended_sampling_vector(g));
                        }
                    },
                ],
            );
            SamplingRow {
                n,
                cell_m: s.cell,
                basic_us: per_vector(t[0]),
                ext_us: per_vector(t[1]),
            }
        })
        .collect();
    eprintln!("[perf_snapshot] sampling vectors done");

    // The live-churn row: median single-node repair at n = 40, cell 4 m
    // (625 cells — the finest n = 40 grid that keeps the median repair
    // sub-millisecond with real margin; cost is linear in cell count).
    // Runs after the timed tables so the repair workload never
    // interleaves with the build/match candidates.
    let repair_rounds = if cli.fast { 1 } else { 5 };
    let rebuild_rounds = if cli.fast { 1 } else { 2 };
    let repair = {
        let mut s = setup(40, 7, 4.0);
        let faces = s.map.face_count();
        let incremental = repair_median_us(&mut s.map, 40, RepairMode::Incremental, repair_rounds);
        let rebuild = repair_median_us(&mut s.map, 40, RepairMode::Rebuild, rebuild_rounds);
        eprintln!("[perf_snapshot] map repair done");
        RepairRow {
            n: 40,
            faces,
            cell_m: 4.0,
            events: 2 * 40,
            incremental_median_us: incremental,
            rebuild_median_us: rebuild,
        }
    };

    table.print();
    println!();
    for r in &rows {
        if let (Some(b), Some(match_ref)) = (&r.build, r.match_ref_us) {
            println!(
                "n = {:>3}: build speedup (scalar ref / packed serial) = {:.2}x, \
                 match speedup (scalar ref / packed) = {:.2}x",
                r.n,
                b.ref_ms / b.serial_ms,
                match_ref / r.match_packed_us,
            );
        } else {
            println!(
                "n = {:>3}: indexed speedup (packed scan / indexed) = {:.2}x, \
                 indexed p99 = {:.1} µs",
                r.n,
                r.match_packed_us / r.match_indexed_us,
                r.match_indexed_p99_us,
            );
        }
    }
    for r in &sampling {
        println!(
            "sampling vector @ n = {:>2}, cell {} m: basic = {:.2} µs, extended = {:.2} µs",
            r.n, r.cell_m, r.basic_us, r.ext_us,
        );
    }
    println!(
        "map repair @ n = {}, cell {} m ({} events): incremental median = {:.1} µs, \
         rebuild-per-event median = {:.1} µs ({:.1}x)",
        repair.n,
        repair.cell_m,
        repair.events,
        repair.incremental_median_us,
        repair.rebuild_median_us,
        repair.rebuild_median_us / repair.incremental_median_us,
    );

    // The timing loops above ran with NO telemetry sink installed — the
    // enabled-check must stay effectively free on the hot paths. A single
    // instrumented pass afterwards populates the snapshot embedded in the
    // artifact without contaminating the timings.
    let registry = std::sync::Arc::new(wsn_telemetry::Registry::new());
    wsn_telemetry::install(std::sync::Arc::clone(&registry));
    for n in [10usize, 20, 40] {
        let s = setup(n, 7, 1.0);
        FaceMap::build_with_threads(&s.positions, s.field, s.c, s.cell, threads);
        let warm = s.map.face_at(s.truth).unwrap();
        std::hint::black_box(match_exhaustive(&s.map, &s.vector));
        std::hint::black_box(match_heuristic(&s.map, &s.vector, warm));
        std::hint::black_box(match_indexed(&s.map, &s.vector));
        std::hint::black_box(match_indexed(&s.map, &s.vector_ext));
    }
    {
        // One instrumented death + revive so the `fttt.map.repair.*`
        // counters land in the embedded metrics snapshot.
        let mut s = setup(40, 7, 4.0);
        std::hint::black_box(s.map.kill_node(7, RepairMode::Incremental));
        std::hint::black_box(s.map.revive_node(7, RepairMode::Incremental));
    }
    wsn_telemetry::uninstall();
    let metrics = registry.snapshot();

    let doc = artifact(&rows, &sampling, &repair, threads, cli.seed, &metrics);
    if let (Some(base), Some(path)) = (&baseline, &cli.check) {
        // Regression-gate mode: compare against the committed baseline and
        // leave BENCH_core.json untouched (a gate run must not move its
        // own goalposts).
        return gate::run(&doc, base, path);
    }
    let path = "BENCH_core.json";
    std::fs::write(path, doc.to_pretty()).expect("write BENCH_core.json");
    println!("\nwrote {path}");
    ExitCode::SUCCESS
}

/// The `BENCH_core.json` document. The telemetry snapshot comes from a
/// separate instrumented pass (the timed loops run sink-free) and is
/// embedded under `"metrics"`.
fn artifact(
    rows: &[Row],
    sampling: &[SamplingRow],
    repair: &RepairRow,
    threads: usize,
    seed: u64,
    metrics: &wsn_telemetry::Snapshot,
) -> JsonValue {
    let config = JsonValue::object([
        ("field", "100x100 m".into()),
        (
            "cell_size_m",
            "per row (`cell_m`): 1.0 for n <= 40, 0.5 for the match-only scale rows".into(),
        ),
        (
            "adaptive",
            JsonValue::object([("coarse_cell_m", 4.0.into()), ("refine", 4.0.into())]),
        ),
        ("threads", threads.into()),
        ("seed", digest_hex(seed).into()),
        (
            "reference",
            "in-binary scalar seed paths: faithful port of the seed serial FaceMap::build \
             (per-cell SignatureVector, full-vector hash grouping, centroid/neighbor passes) \
             and the per-face difference_norm_squared + 1/sqrt exhaustive scan"
                .into(),
        ),
    ]);
    let mut out = Vec::new();
    for r in rows {
        let shape = format!("n={},cell={}", r.n, r.cell_m);
        let mut push = |layer, metric, unit, value: f64| {
            out.push(gate::row(layer, &shape, metric, unit, value));
        };
        push("facemap", "faces", "count", r.faces as f64);
        // The build and speedup layers exist only on the full rows; the
        // gate is baseline-driven, so match-only scale rows gate match
        // metrics alone.
        if let Some(b) = &r.build {
            push("build", "scalar_reference", "ms", b.ref_ms);
            push("build", "packed_serial", "ms", b.serial_ms);
            push("build", "packed_parallel", "ms", b.parallel_ms);
            push("build", "packed_adaptive", "ms", b.adaptive_ms);
        }
        if let Some(match_ref) = r.match_ref_us {
            push("matching", "scalar_reference", "us", match_ref);
        }
        push("matching", "packed_exhaustive", "us", r.match_packed_us);
        push("matching", "heuristic_warm", "us", r.match_heur_us);
        push("matching", "indexed", "us", r.match_indexed_us);
        push("matching", "indexed_p99", "us", r.match_indexed_p99_us);
        push("matching", "indexed_ext", "us", r.match_indexed_ext_us);
        push(
            "matching",
            "indexed_ext_p99",
            "us",
            r.match_indexed_ext_p99_us,
        );
        if let (Some(b), Some(match_ref)) = (&r.build, r.match_ref_us) {
            push("speedup", "build_serial", "x", b.ref_ms / b.serial_ms);
            push(
                "speedup",
                "match_exhaustive",
                "x",
                match_ref / r.match_packed_us,
            );
            push(
                "speedup",
                "match_indexed",
                "x",
                match_ref / r.match_indexed_us,
            );
        }
    }
    for r in sampling {
        let shape = format!("n={},cell={}", r.n, r.cell_m);
        out.push(gate::row(
            "sampling",
            &shape,
            "vector_basic",
            "us",
            r.basic_us,
        ));
        out.push(gate::row("sampling", &shape, "vector_ext", "us", r.ext_us));
    }
    let shape = format!("n={},cell={}", repair.n, repair.cell_m);
    out.extend([
        gate::row("facemap", &shape, "faces", "count", repair.faces),
        gate::row(
            "repair",
            &shape,
            "incremental_median",
            "us",
            repair.incremental_median_us,
        ),
        gate::row(
            "repair",
            &shape,
            "rebuild_median",
            "us",
            repair.rebuild_median_us,
        ),
        gate::row("repair", &shape, "events", "count", repair.events),
    ]);
    gate::artifact(
        "perf_snapshot",
        config,
        out,
        [("metrics", metrics.to_json_value())],
    )
}
