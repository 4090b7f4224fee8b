//! End-to-end telemetry spine test: install a sink AND a trace journal,
//! run a small campaign schedule through the real
//! session/sampler/regime/matcher stack, and assert that every
//! instrumented layer reported to both. Lives in its own file (= its own
//! test process) so the installed globals can never leak into the
//! sink-free overhead tests.

use fttt::{match_indexed, FaceMap, SamplingVector};
use fttt_bench::robustness::{run_custom_schedule, CampaignConfig};
use std::sync::Arc;
use wsn_geometry::{Point, Rect};
use wsn_network::Schedule;
use wsn_telemetry::{Journal, TraceEvent};

#[test]
fn campaign_populates_every_telemetry_layer() {
    let registry = Arc::new(wsn_telemetry::Registry::new());
    wsn_telemetry::install(Arc::clone(&registry));
    let journal = Arc::new(Journal::new());
    wsn_telemetry::install_journal(Arc::clone(&journal));
    let cfg = CampaignConfig {
        seed: 42,
        trials: 2,
        duration: 20.0,
        nodes: 8,
    };
    let schedule_text = "outage from=8 until=14";
    assert!(Schedule::parse(schedule_text).is_ok());
    let rows = run_custom_schedule(&cfg, "outage", schedule_text);
    // Indexed-matcher layer: drive it explicitly so its counters and
    // journal instants are deterministically present, on top of whatever
    // the sessions' full-accuracy re-acquisitions contributed.
    let positions = vec![
        Point::new(30.0, 30.0),
        Point::new(70.0, 30.0),
        Point::new(30.0, 70.0),
        Point::new(70.0, 70.0),
    ];
    let map = FaceMap::build(&positions, Rect::square(100.0), 1.15, 1.0);
    for f in map.faces().iter().take(3) {
        let v = SamplingVector::new(
            map.signature(f.id)
                .iter()
                .map(|&c| Some(c as f64))
                .collect(),
        );
        assert_eq!(match_indexed(&map, &v).face, f.id);
    }
    wsn_telemetry::uninstall();
    wsn_telemetry::uninstall_journal();
    assert_eq!(rows.len(), 2);

    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);

    // Build layer: the campaign builds one shared face map (trials clone
    // it — the build is deterministic), plus the explicit build below.
    assert!(counter("fttt.build.calls") >= 2, "{:?}", snap.counters);
    assert!(counter("fttt.build.faces") > 0);
    assert!(snap.histograms.contains_key("fttt.build.total"));
    // Matcher layer: the session methods run the heuristic matcher.
    assert!(
        counter("fttt.match.heuristic.calls") > 0,
        "{:?}",
        snap.counters
    );
    assert!(counter("fttt.match.evaluations") > 0);
    // Session layer: rounds always tick; a 6 s blackout forces status
    // transitions (and Lost) in every trial.
    assert!(counter("fttt.session.rounds") > 0);
    assert!(
        counter("fttt.session.transitions") > 0,
        "{:?}",
        snap.counters
    );
    assert!(counter("fttt.session.to_lost") > 0, "{:?}", snap.counters);
    // Regime layer: the outage entry applies every round and drops every
    // delivered reading inside its window.
    assert!(counter("wsn.regime.activations") > 0, "{:?}", snap.counters);
    assert!(
        counter("wsn.regime.readings_dropped") > 0,
        "{:?}",
        snap.counters
    );
    // Sampler layer: groupings and delivered readings.
    assert!(counter("wsn.sampler.groupings") > 0);
    assert!(counter("wsn.sampler.readings_delivered") > 0);

    // The exporters agree with the snapshot on this real workload.
    let json = snap.to_json_value().to_pretty();
    assert!(json.contains("\"fttt.session.rounds\""));
    let prom = snap.to_prometheus();
    assert!(prom.contains("fttt_session_rounds"));

    // Journal side of the spine: the same run must leave a coherent trace.
    let log = journal.snapshot();
    assert!(
        log.dropped == 0 && log.events.len() as u64 == log.emitted(),
        "small campaign must fit the default ring ({} events, {} dropped)",
        log.events.len(),
        log.dropped
    );
    let named =
        |name: &str| -> Vec<&TraceEvent> { log.events.iter().filter(|e| e.name == name).collect() };
    // Session layer: one round event per session round, carrying the
    // explainability args the `explain` subcommand renders.
    let rounds = named("fttt.session.round");
    assert_eq!(
        rounds.len() as u64,
        counter("fttt.session.rounds"),
        "every metrics-counted round must also be journaled"
    );
    for r in &rounds {
        for key in [
            "t",
            "status_before",
            "status",
            "cause",
            "missing",
            "k_after",
        ] {
            assert!(
                r.args.iter().any(|(k, _)| *k == key),
                "round event lacks `{key}`: {:?}",
                r.args
            );
        }
    }
    fn cause_of(e: &TraceEvent) -> Option<&str> {
        e.args
            .iter()
            .find(|(k, _)| *k == "cause")
            .and_then(|(_, v)| {
                if let wsn_telemetry::ArgValue::Str(s) = v {
                    Some(s.as_str())
                } else {
                    None
                }
            })
    }
    // The 6 s outage must surface as blackout-caused rounds.
    assert!(
        rounds.iter().any(|r| cause_of(r) == Some("blackout")),
        "no blackout-caused round despite the outage window"
    );
    // Matcher + sampler + regime layers journal instants too.
    assert!(!named("fttt.match.heuristic").is_empty());
    assert!(!named("wsn.sampler.grouping").is_empty());
    assert!(!named("wsn.regime.apply").is_empty());
    // Indexed-matcher layer: counters and journal must tell the same
    // story — one instant per call, per-event chunk args summing to the
    // aggregate counters, and the scanned/pruned split exhaustive.
    let indexed_calls = counter("fttt.match.indexed.calls");
    assert!(indexed_calls >= 3, "{:?}", snap.counters);
    assert_eq!(
        counter("fttt.match.index.chunks_total"),
        counter("fttt.match.index.chunks_scanned") + counter("fttt.match.index.chunks_pruned"),
        "every chunk bound is either scanned or pruned"
    );
    let index_events = named("fttt.match.index");
    assert_eq!(
        index_events.len() as u64,
        indexed_calls,
        "every indexed match must journal exactly one instant"
    );
    let arg_sum = |key: &str| -> u64 {
        index_events
            .iter()
            .map(|e| {
                e.args
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map_or(0, |(_, v)| match v {
                        wsn_telemetry::ArgValue::U64(n) => *n,
                        _ => 0,
                    })
            })
            .sum()
    };
    assert_eq!(arg_sum("chunks"), counter("fttt.match.index.chunks_total"));
    assert_eq!(
        arg_sum("scanned"),
        counter("fttt.match.index.chunks_scanned")
    );
    assert_eq!(arg_sum("pruned"), counter("fttt.match.index.chunks_pruned"));
    // And the whole log round-trips through both exporters.
    assert!(log.to_chrome_json().contains("\"traceEvents\""));
    assert!(log.to_jsonl().starts_with("{\"kind\":\"meta\""));
}
