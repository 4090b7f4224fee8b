//! Tier-1 trace-overhead smoke test: with NO journal installed, the
//! journal-instrumented hot paths must cost essentially the same as an
//! uninstrumented inline scan of the same work. Mirror of
//! `telemetry_overhead.rs` for the tracing side: this file must stay the
//! only test in its binary and must NEVER install a journal (or a metrics
//! sink) — integration tests share a process per file, and a journal
//! installed by any test here would arm the global tracing flag for the
//! timed loops.

use fttt::facemap::FaceMap;
use fttt::matching::match_exhaustive;
use fttt::sampling::basic_sampling_vector;
use fttt::vector::{difference_norm_squared, SamplingVector, SignatureVector};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use wsn_geometry::{Point, Rect};
use wsn_network::{Deployment, GroupSampler, SensorField};
use wsn_signal::{uncertainty_constant, PathLossModel};

fn setup() -> (FaceMap, SamplingVector) {
    let field = Rect::square(100.0);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let deployment = Deployment::random_uniform(12, field, &mut rng);
    let sensor_field = SensorField::new(deployment, 200.0);
    let c = uncertainty_constant(1.0, 4.0, 6.0);
    let map = FaceMap::build(&sensor_field.deployment().positions(), field, c, 4.0);
    let sampler = GroupSampler::new(PathLossModel::paper_default(), 5);
    let group = sampler.sample(&sensor_field, Point::new(47.0, 53.0), &mut rng);
    (map, basic_sampling_vector(&group))
}

/// The matcher's work without any instrumentation call sites.
fn uninstrumented_scan(signatures: &[SignatureVector], v: &SamplingVector) -> f64 {
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

/// Min-of-rounds over batches: the minimum approximates uncontended cost.
fn min_batch_us(rounds: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    best
}

#[test]
fn disabled_tracing_is_effectively_free() {
    assert!(
        !wsn_telemetry::enabled() && !wsn_telemetry::journal_enabled(),
        "this test binary must never install a sink or a journal"
    );
    let (map, v) = setup();
    // Per-face signature vectors, materialized outside the timed loops.
    let signatures: Vec<SignatureVector> = (0..map.face_count())
        .map(|f| map.planes().signature(f))
        .collect();
    for _ in 0..10 {
        std::hint::black_box(match_exhaustive(&map, &v));
        std::hint::black_box(uninstrumented_scan(&signatures, &v));
    }
    let rounds = 8;
    let batch = 25;
    let instrumented = min_batch_us(rounds, batch, || {
        std::hint::black_box(match_exhaustive(&map, &v));
    });
    let bare = min_batch_us(rounds, batch, || {
        std::hint::black_box(uninstrumented_scan(&signatures, &v));
    });
    // Loose by design (see telemetry_overhead.rs): this guards against a
    // journal accidentally armed by default or unconditional event
    // construction on the hot path, not microvariance.
    assert!(
        instrumented < 5.0 * bare + 20.0,
        "instrumented match_exhaustive {instrumented:.2} µs vs bare scan {bare:.2} µs — \
         tracing is not free with no journal installed"
    );

    // A disabled span must degenerate to a couple of relaxed loads: even a
    // generous bound catches an accidental allocation or lock per call.
    let span_us = min_batch_us(rounds, 10_000, || {
        let _ = std::hint::black_box(wsn_telemetry::span("trace.overhead.test"));
    });
    assert!(
        span_us < 1.0,
        "a disabled span costs {span_us:.4} µs — expected well under a microsecond"
    );
}
