//! `adopt_churn` ≡ `apply_churn`: a session that adopts a map repaired
//! elsewhere must behave exactly like one that repairs its own. The fault
//! campaign relies on this to repair each churn event once per lineage
//! and hand the result to every session tracking on it.

use std::sync::Arc;

use fttt::facemap::{FaceMap, RepairMode};
use fttt::session::{SessionOptions, TrackingSession};
use fttt::tracker::{Tracker, TrackerOptions};
use rand::SeedableRng;
use wsn_geometry::{Point, Rect};
use wsn_mobility::WaypointPath;
use wsn_network::{Deployment, GroupSampler, SensorField};
use wsn_signal::PathLossModel;

#[test]
fn adopting_a_shared_repair_matches_repairing_privately() {
    let field = Rect::square(100.0);
    let sensor_field = SensorField::new(Deployment::grid(9, field), 150.0);
    let model = PathLossModel::new(-40.0, 0.0, 4.0, 4.0);
    let c = model.uncertainty_constant(1.0);
    let map = FaceMap::build(&sensor_field.deployment().positions(), field, c, 2.0);
    let sampler = GroupSampler::new(model, 5);
    let trace = WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
        .walk_constant(3.0, 1.0);

    for mode in [RepairMode::Incremental, RepairMode::Rebuild] {
        let session = |map: Arc<FaceMap>| {
            TrackingSession::new(
                Tracker::shared(map, TrackerOptions::heuristic()),
                SessionOptions::new(5),
            )
            .with_session_id(7)
        };
        let mut lineage = Arc::new(map.clone());
        // `private` starts on its own copy and repairs it; `adopter`
        // shares the lineage's map and only ever adopts.
        let mut private = session(Arc::new(map.clone()));
        let mut adopter = session(Arc::clone(&lineage));
        let mut events = vec![
            (5.0, 1usize, true),
            (6.0, 3, true),
            (7.0, 4, true),
            (12.0, 1, false),
            (13.0, 3, false),
            (14.0, 4, false),
        ];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut after_churn = false;
        let mut forced_after_churn = 0;
        for p in trace.points() {
            while let Some(&(et, node, death)) = events.first() {
                if et > p.t {
                    break;
                }
                events.remove(0);
                let own = private.apply_churn(p.t, node, death, mode);
                let (next, shared) = lineage.repaired(node, death, mode);
                lineage = Arc::new(next);
                adopter.adopt_churn(p.t, Arc::clone(&lineage), &shared);
                assert_eq!(own.epoch, shared.epoch);
                assert_eq!(own.faces_after, shared.faces_after);
                assert_eq!(
                    private.tracker().warm_start(),
                    adopter.tracker().warm_start(),
                    "warm face remapped differently at t = {}",
                    p.t
                );
                assert_eq!(
                    fttt::replay::digest_face_map(private.tracker().map()),
                    fttt::replay::digest_face_map(adopter.tracker().map())
                );
                after_churn = true;
            }
            assert_eq!(private.requested_samples(), adopter.requested_samples());
            let group = GroupSampler {
                samples: private.requested_samples(),
                ..sampler.clone()
            }
            .sample(&sensor_field, p.pos, &mut rng);
            let a = private.step(p.t, &group);
            let b = adopter.step(p.t, &group);
            assert_eq!(a, b, "{mode:?}: rounds diverged at t = {}", p.t);
            if after_churn && a.reacquired {
                forced_after_churn += 1;
            }
            after_churn = false;
        }
        assert!(events.is_empty(), "every churn event must have applied");
        assert!(
            forced_after_churn > 0,
            "{mode:?}: no churn forced a re-acquisition — the test is blind to the ladder"
        );
    }
}
