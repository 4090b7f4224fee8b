//! Workload inputs, generated up front from the seed: per-session readings
//! (already encoded as wire `Push` frames), ground truth, and — where the
//! shadow runs before the timed window — the expected reply of every round.

use crate::spec::{Workload, EXTENDED_EVERY};
use crate::trace::{timed, Tracer};
use fttt::replay::{digest_round, Digest};
use fttt::session::TrackingSession;
use fttt::tracker::Tracker;
use fttt::FaceMap;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use wsn_network::{FaultModel, SensorField};
use wsn_server::{Frame, ReadingRound, RoundResult, ServerConfig};

/// Byte offset of the session id inside an encoded v1 `Push` frame:
/// `[u32 len][u8 version][u8 kind][u64 session]…`.
pub const PUSH_SESSION_OFFSET: usize = 6;

/// Client tags carry this bit so an `Overloaded` shed of an `Open` (whose
/// context is the tag) never collides with a shed push (whose context is
/// a server-assigned session id).
pub const TAG_BIT: u64 = 1 << 62;

/// Writes `session` into an encoded `Push` frame.
pub fn patch_session(frame: &mut [u8], session: u64) {
    frame[PUSH_SESSION_OFFSET..PUSH_SESSION_OFFSET + 8].copy_from_slice(&session.to_le_bytes());
}

/// Checks [`PUSH_SESSION_OFFSET`] against the wire encoder, so a change of
/// the frame layout fails loudly instead of sending corrupt frames.
pub fn check_push_layout(sample: &[u8]) -> Result<(), String> {
    let Ok(Frame::Push { rounds, .. }) = Frame::decode(&sample[4..]) else {
        return Err("sample is not a Push frame".into());
    };
    let mut patched = sample.to_vec();
    patch_session(&mut patched, 0x0123_4567_89ab_cdef);
    let want = Frame::Push {
        session: 0x0123_4567_89ab_cdef,
        rounds,
    }
    .encode();
    if patched == want {
        Ok(())
    } else {
        Err("Push frame layout changed: session id is not at byte 6".into())
    }
}

/// A bit-exact fingerprint of one wire result: every field's bits folded
/// in order, so any flipped bit changes it.
pub fn result_hash(r: &RoundResult) -> u64 {
    let mut d = Digest::new();
    d.write_u64(r.round);
    d.write_u64(r.t.to_bits());
    d.write_u64(r.x.to_bits());
    d.write_u64(r.y.to_bits());
    d.write_u64(u64::from(r.status_before));
    d.write_u64(u64::from(r.status));
    d.write_u64(u64::from(r.cause));
    d.write_u64(r.face);
    d.write_bool(r.similarity.is_some());
    d.write_u64(r.similarity.map_or(0, f64::to_bits));
    d.write_u64(r.missing_fraction.to_bits());
    d.write_u64(r.zero_fraction.to_bits());
    d.write_u64(u64::from(r.samples));
    d.write_u64(u64::from(r.k_after));
    d.write_u64(u64::from(r.flags));
    d.value()
}

/// The expected reply to one push: result fingerprint and the session's
/// running replay digest after the round.
pub type Expect = (u64, u64);

/// One workload session's inputs.
pub struct SessInput {
    pub global: u64,
    pub extended: bool,
    /// Encoded v1 `Push` frames, one round each, session id 0 (patched in
    /// at send time).
    pub frames: Vec<Vec<u8>>,
    /// Ground-truth target position per round.
    pub truth: Vec<(f64, f64)>,
    /// Shadow-engine expectation per round; empty when the workload
    /// verifies after the window instead.
    pub expected: Vec<Expect>,
}

impl SessInput {
    /// The readings of round `r`, decoded from the exact bytes sent.
    pub fn round(&self, r: usize) -> ReadingRound {
        match Frame::decode(&self.frames[r][4..]) {
            Ok(Frame::Push { mut rounds, .. }) if rounds.len() == 1 => rounds.remove(0),
            _ => unreachable!("generated frames are single-round pushes"),
        }
    }
}

/// The shared geometry of a workload: server configuration, field and map.
pub struct World {
    pub server: ServerConfig,
    pub field: SensorField,
    pub map: Arc<FaceMap>,
}

impl World {
    pub fn build(w: &Workload) -> World {
        let params = w.params();
        let field = params.grid_field();
        let map = Arc::new(params.face_map(&field));
        World {
            server: ServerConfig::new(params),
            field,
            map,
        }
    }

    /// A fresh shadow session configured exactly as the server's.
    pub fn shadow(&self, map: Arc<FaceMap>, extended: bool) -> TrackingSession {
        TrackingSession::new(
            Tracker::shared(map, self.server.tracker_options(extended)),
            self.server.session_options(),
        )
    }
}

/// Generates session `global`'s `rounds` readings from the seed. The
/// readings depend only on `(seed, global, round)`, so a smaller run sees
/// a prefix of a larger one.
pub fn session_readings(
    w: &Workload,
    world: &World,
    seed: u64,
    global: u64,
    rounds: usize,
    tracer: Option<&Tracer>,
) -> (Vec<ReadingRound>, Vec<(f64, f64)>) {
    let params = world.server.params;
    let mut rng = ChaCha8Rng::seed_from_u64(wsn_parallel::seed_for(seed, global));
    let trace = params.random_trace((rounds + 1) as f64 * params.localization_period(), &mut rng);
    let mut sampler = params.sampler();
    if w.node_failure > 0.0 {
        sampler = sampler.with_fault(FaultModel::with_node_failure(w.node_failure));
    }
    let points = &trace.points()[..rounds];
    let readings = points
        .iter()
        .map(|p| ReadingRound {
            t: p.t,
            group: timed(tracer, "network.sample", || {
                sampler.sample(&world.field, p.pos, &mut rng)
            }),
        })
        .collect();
    let truth = points.iter().map(|p| (p.pos.x, p.pos.y)).collect();
    (readings, truth)
}

/// Whether workload session `global` runs extended vectors.
pub fn is_extended(global: u64) -> bool {
    global.is_multiple_of(EXTENDED_EVERY)
}

/// Generates workload sessions `first..first + sessions`, `rounds` rounds
/// each, on two threads, with the shadow expectation when `shadow` is set.
pub fn generate(
    w: &Workload,
    world: &World,
    seed: u64,
    first: u64,
    rounds: usize,
    shadow: bool,
) -> Vec<SessInput> {
    let ids: Vec<u64> = (first..first + w.sessions as u64).collect();
    wsn_parallel::par_map_threads(2, &ids, |_, &global| {
        let (readings, truth) = session_readings(w, world, seed, global, rounds, None);
        let extended = is_extended(global);
        let expected = if shadow {
            expect_rounds(world, Arc::clone(&world.map), extended, &readings)
        } else {
            Vec::new()
        };
        let frames = readings
            .into_iter()
            .map(|r| {
                Frame::Push {
                    session: 0,
                    rounds: vec![r],
                }
                .encode()
            })
            .collect();
        SessInput {
            global,
            extended,
            frames,
            truth,
            expected,
        }
    })
}

/// Steps `readings` through a fresh shadow session on `map`.
pub fn expect_rounds(
    world: &World,
    map: Arc<FaceMap>,
    extended: bool,
    readings: &[ReadingRound],
) -> Vec<Expect> {
    let mut session = world.shadow(map, extended);
    let mut digest = Digest::new();
    readings
        .iter()
        .map(|r| {
            let round = session.step(r.t, &r.group);
            digest_round(&mut digest, &round);
            (
                result_hash(&RoundResult::from_round(&round)),
                digest.value(),
            )
        })
        .collect()
}
