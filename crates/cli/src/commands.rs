//! Subcommand implementations.

use crate::args::{MetricsFormat, Options};
use crate::render::Canvas;
use fttt::config::PaperParams;
use fttt::postprocess;
use fttt::theory;
use fttt_bench::{run_once, trial_stats, MethodKind, Scenario, Table};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Exits with the CLI usage code when an output path cannot be written —
/// called *before* the simulation runs, so a typo'd `--metrics-out` fails
/// in milliseconds instead of after the whole campaign.
fn require_writable(flag: &str, path: &std::path::Path) {
    if let Err(msg) = wsn_telemetry::ensure_writable_file(path) {
        eprintln!("error: {flag}: {msg}");
        std::process::exit(2);
    }
}

/// Installs a fresh telemetry sink when `--metrics-out` was given,
/// returning the registry to flush after the run. Validates the output
/// path up front.
fn metrics_sink(opts: &Options) -> Option<std::sync::Arc<wsn_telemetry::Registry>> {
    let path = opts.metrics_out.as_ref()?;
    require_writable("--metrics-out", path);
    let registry = std::sync::Arc::new(wsn_telemetry::Registry::new());
    wsn_telemetry::install(std::sync::Arc::clone(&registry));
    Some(registry)
}

/// Installs a fresh trace journal when `--trace-out` was given, returning
/// it for draining after the run. Validates the output path up front.
fn trace_sink(opts: &Options) -> Option<std::sync::Arc<wsn_telemetry::Journal>> {
    let path = opts.trace_out.as_ref()?;
    require_writable("--trace-out", path);
    let journal = std::sync::Arc::new(wsn_telemetry::Journal::new());
    wsn_telemetry::install_journal(std::sync::Arc::clone(&journal));
    Some(journal)
}

/// Uninstalls the journal and writes its snapshot to `--trace-out`:
/// a `.jsonl` path selects line-delimited JSON, anything else the Chrome
/// trace-event format (loadable in Perfetto / about:tracing).
fn emit_trace(opts: &Options, journal: Option<std::sync::Arc<wsn_telemetry::Journal>>) {
    let (Some(journal), Some(path)) = (journal, opts.trace_out.as_ref()) else {
        return;
    };
    wsn_telemetry::uninstall_journal();
    let log = journal.snapshot();
    let payload = if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
        log.to_jsonl()
    } else {
        log.to_chrome_json()
    };
    std::fs::write(path, payload).expect("write trace file");
    eprintln!(
        "[trace] wrote {} ({} events, {} dropped)",
        path.display(),
        log.events.len(),
        log.dropped
    );
}

/// Renders a snapshot in the format picked by `--metrics-format`.
fn metrics_payload(snap: &wsn_telemetry::Snapshot, format: MetricsFormat) -> String {
    match format {
        MetricsFormat::Json => snap.to_json_value().to_pretty(),
        MetricsFormat::Prom => snap.to_prometheus(),
    }
}

/// Uninstalls the sink, writes the snapshot to `--metrics-out` in the
/// chosen format and prints the metrics table.
fn emit_metrics(opts: &Options, registry: Option<std::sync::Arc<wsn_telemetry::Registry>>) {
    let (Some(registry), Some(path)) = (registry, opts.metrics_out.as_ref()) else {
        return;
    };
    wsn_telemetry::uninstall();
    let snap = registry.snapshot();
    std::fs::write(path, metrics_payload(&snap, opts.metrics_format)).expect("write metrics file");
    let mut t = Table::new("metrics", &["metric", "value"]);
    for (name, v) in &snap.counters {
        t.row(&[name.clone(), v.to_string()]);
    }
    for (name, v) in &snap.gauges {
        t.row(&[name.clone(), format!("{v}")]);
    }
    for (name, h) in &snap.histograms {
        t.row(&[
            format!("{name} (mean/n)"),
            format!("{:.2} / {}", h.mean(), h.count),
        ]);
    }
    println!();
    t.print();
    eprintln!("[metrics] wrote {}", path.display());
}

fn params_from(opts: &Options) -> PaperParams {
    let mut p = PaperParams::default()
        .with_nodes(opts.nodes)
        .with_epsilon(opts.epsilon)
        .with_samples(opts.samples)
        .with_cell_size(opts.cell);
    if opts.idealized {
        p = p.with_idealized_noise();
    }
    p
}

fn scenario_from(opts: &Options) -> Scenario {
    let mut s = Scenario::new(params_from(opts)).with_duration(opts.duration);
    if opts.grid {
        s = s.with_grid();
    }
    s
}

/// `fttt-sim track`: one simulation, error report, optional render.
pub fn track(opts: &Options) {
    let metrics = metrics_sink(opts);
    let journal = trace_sink(opts);
    let scenario = scenario_from(opts);
    let run = run_once(&scenario, opts.method, opts.seed);
    let stats = run.error_stats();
    println!(
        "{} | n = {}, k = {}, ε = {}, {} deployment, {:.0} s, seed {}",
        opts.method.label(),
        opts.nodes,
        opts.samples,
        opts.epsilon,
        if opts.grid { "grid" } else { "random" },
        opts.duration,
        opts.seed,
    );
    println!(
        "{} localizations | mean {:.2} m | std {:.2} m | max {:.2} m | rmse {:.2} m",
        stats.count, stats.mean, stats.std, stats.max, stats.rmse
    );
    println!(
        "trajectory roughness {:.2} m | mean estimated speed {:.2} m/s",
        postprocess::roughness(&run),
        postprocess::mean_speed(&run)
    );
    if opts.render {
        let field = scenario.params.rect();
        let mut canvas = Canvas::new(field, 64, 32);
        canvas.plot_path(
            &run.localizations
                .iter()
                .map(|l| l.truth)
                .collect::<Vec<_>>(),
            '#',
        );
        for l in &run.localizations {
            canvas.plot(l.estimate, 'o');
        }
        print!("{}", canvas.render());
        println!("  # true trajectory   o estimates");
    }
    if journal.is_some() {
        session_pass(opts);
    }
    emit_metrics(opts, metrics);
    emit_trace(opts, journal);
}

/// With a journal armed, `track` additionally runs the self-healing
/// [`TrackingSession`](fttt::session::TrackingSession) wrapper (FTTT
/// methods only) over the same seeded world, so the trace carries the
/// per-round explainability events that `fttt-sim explain` renders.
fn session_pass(opts: &Options) {
    use fttt::session::{SessionOptions, TrackStatus, TrackingSession};
    use fttt::tracker::{Tracker, TrackerOptions};
    let tracker_options = match opts.method {
        MethodKind::FtttBasic => TrackerOptions::default(),
        MethodKind::FtttExtended => TrackerOptions::extended(),
        MethodKind::FtttHeuristic => TrackerOptions::heuristic(),
        _ => {
            eprintln!(
                "[trace] note: {} has no session wrapper — the trace holds \
                 sampler events only",
                opts.method.label()
            );
            return;
        }
    };
    let params = params_from(opts);
    // Same world derivation as `run_once`: deployment then trace from one
    // seeded stream.
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let field = if opts.grid {
        params.grid_field()
    } else {
        params.random_field(&mut rng)
    };
    let trace = params.random_trace(opts.duration, &mut rng);
    let map = params.face_map(&field);
    let mut session = TrackingSession::new(
        Tracker::new(map, tracker_options),
        SessionOptions::new(params.samples_k).with_max_speed(params.max_speed),
    );
    let base = params.sampler();
    let run = session.run(&trace, &mut rng, |k, pos, _, r| {
        let sampler = wsn_network::GroupSampler {
            samples: k,
            ..base.clone()
        };
        sampler.sample(&field, pos, r)
    });
    let transitions = run
        .rounds
        .windows(2)
        .filter(|w| w[0].status != w[1].status)
        .count();
    println!(
        "session pass: {} rounds | tracking {} / degraded {} / lost {} | \
         {} transition(s) | mean k {:.2}",
        run.rounds.len(),
        run.rounds_in(TrackStatus::Tracking),
        run.rounds_in(TrackStatus::Degraded),
        run.rounds_in(TrackStatus::Lost),
        transitions,
        run.total_samples() as f64 / run.rounds.len().max(1) as f64,
    );
}

/// `fttt-sim facemap`: build (or load) the division and report structure.
pub fn facemap(opts: &Options) {
    let params = params_from(opts);
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let field = if opts.grid {
        params.grid_field()
    } else {
        params.random_field(&mut rng)
    };
    let t0 = std::time::Instant::now();
    let map = match &opts.load {
        Some(path) => {
            let mut file =
                std::io::BufReader::new(std::fs::File::open(path).expect("open face-map file"));
            fttt::facemap::FaceMap::read_from(&mut file).expect("parse face-map file")
        }
        None => params.face_map(&field),
    };
    let build = t0.elapsed();
    if let Some(path) = &opts.save {
        let mut file =
            std::io::BufWriter::new(std::fs::File::create(path).expect("create face-map file"));
        map.write_to(&mut file).expect("serialize face map");
        eprintln!("[saved] {}", path.display());
    }
    println!(
        "n = {}, C = {:.4}, cell = {} m: {} faces ({} certain), {} neighbor links, built in {:.0} ms",
        opts.nodes,
        params.uncertainty_constant(),
        params.cell_size,
        map.face_count(),
        map.certain_face_count(),
        map.neighbor_link_count() / 2,
        build.as_secs_f64() * 1e3,
    );
    let sizes: Vec<usize> = map.faces().iter().map(|f| f.cell_count).collect();
    let max = sizes.iter().max().copied().unwrap_or(0);
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    println!("face sizes: mean {mean:.1} cells, largest {max} cells");
    if opts.render {
        // Shade cells by (face id mod alphabet) to show the arrangement.
        let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789".chars().collect();
        let mut canvas = Canvas::new(params.rect(), 64, 32);
        let grid = map.grid();
        for (_, center) in grid.iter_centers() {
            if let Some(id) = map.face_at(center) {
                canvas.plot(center, alphabet[id.index() % alphabet.len()]);
            }
        }
        for node in field.nodes() {
            canvas.plot(node.pos, '@');
        }
        print!("{}", canvas.render());
        println!("  letters: faces (mod 36)   @ sensors");
    }
}

/// `fttt-sim sweep`: node-count sweep for one method.
pub fn sweep(opts: &Options) {
    let mut t = Table::new(
        format!(
            "{} mean error vs nodes ({} trials, seed {})",
            opts.method.label(),
            opts.trials,
            opts.seed
        ),
        &["n", "mean (m)", "std (m)", "worst world (m)"],
    );
    for n in [5usize, 10, 15, 20, 25, 30, 35, 40] {
        let mut o = opts.clone();
        o.nodes = n;
        let agg = trial_stats(&scenario_from(&o), opts.method, opts.trials, opts.seed);
        t.row(&[
            n.to_string(),
            format!("{:.2}", agg.mean_error),
            format!("{:.2}", agg.mean_std),
            format!("{:.2}", agg.worst_mean),
        ]);
        eprintln!("[sweep] n = {n} done");
    }
    t.print();
}

/// `fttt-sim campaign`: fault regimes × self-healing sessions, with
/// graceful-degradation envelope checks. `--schedule PATH` runs one
/// user-written regime schedule instead of the built-in sweep; a malformed
/// file is rejected at parse time with the offending line.
pub fn campaign(opts: &Options) {
    use fttt_bench::robustness::{
        campaign_field_side, check_churn_digests, check_envelopes, rows_from_stats,
        run_campaign_stats, run_custom_schedule, CampaignConfig, CampaignKind,
    };
    let metrics = metrics_sink(opts);
    let journal = trace_sink(opts);
    let mut cfg = if opts.fast {
        CampaignConfig::fast(opts.seed)
    } else {
        CampaignConfig::full(opts.seed)
    };
    cfg.trials = opts.trials.max(1);
    let (rows, check, churn_violations) = match &opts.schedule {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {}: {e}", path.display());
                std::process::exit(2);
            });
            // Parse up front so a malformed file is rejected with its
            // offending line before any simulation runs; the campaign
            // takes the text itself (it embeds the schedule in the
            // journal header so a recording is replayable stand-alone).
            wsn_network::Schedule::parse(&text).unwrap_or_else(|e| {
                eprintln!("error: {}: {e}", path.display());
                std::process::exit(2);
            });
            let label = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("schedule");
            (run_custom_schedule(&cfg, label, &text), false, Vec::new())
        }
        None => {
            let cs = run_campaign_stats(&cfg, &CampaignKind::Builtin, 1, 0);
            let rows = rows_from_stats(&cfg, &cs.cells, &cs.stats);
            // The churn family's strongest invariant rides along: the
            // incremental and rebuild policies must have produced
            // bit-identical per-trial digests.
            let churn = check_churn_digests(&cs.cells, &cs.stats);
            (rows, true, churn)
        }
    };
    let mut t = Table::new(
        format!(
            "fault campaign ({} trials x {:.0} s, {} nodes, seed {})",
            cfg.trials, cfg.duration, cfg.nodes, cfg.seed
        ),
        &[
            "regime",
            "rate",
            "method",
            "mean (m)",
            "worst (m)",
            "lost",
            "degraded",
            "mean k",
        ],
    );
    for r in &rows {
        t.row(&[
            r.regime.clone(),
            r.fault_rate
                .map_or_else(|| "-".into(), |v| format!("{v:.1}")),
            r.method.to_string(),
            format!("{:.2}", r.mean_error),
            format!("{:.2}", r.worst_error),
            format!("{:.1}%", 100.0 * r.lost_fraction),
            format!("{:.1}%", 100.0 * r.degraded_fraction),
            format!("{:.2}", r.mean_samples),
        ]);
    }
    t.print();
    emit_metrics(opts, metrics);
    emit_trace(opts, journal);
    if check {
        let mut violations = check_envelopes(&rows, campaign_field_side(&cfg));
        violations.extend(churn_violations);
        if violations.is_empty() {
            println!("\nall graceful-degradation envelopes hold");
        } else {
            eprintln!("\n{} envelope violation(s):", violations.len());
            for v in &violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
    }
}

/// `fttt-sim theory`: the Section-5 sampling-times table.
pub fn theory(opts: &Options) {
    let lambda = opts.lambda;
    let mut t = Table::new(
        format!("required sampling times k for confidence λ = {lambda}"),
        &["in-range nodes", "pairs N", "k", "P(all flips seen)"],
    );
    for nodes in [4usize, 6, 8, 10, 15, 20, 30, 40] {
        let pairs = nodes * (nodes - 1) / 2;
        let k = theory::required_sampling_times(lambda, pairs);
        t.row(&[
            nodes.to_string(),
            pairs.to_string(),
            k.to_string(),
            format!("{:.4}", theory::all_flips_probability(k, pairs)),
        ]);
    }
    t.print();
    println!();
    println!(
        "expected vector error at k = {}: E_N = {:.4} (N = 45 pairs)",
        opts.samples,
        theory::expected_vector_error(opts.samples, 45)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_payload_renders_both_formats() {
        let registry = wsn_telemetry::Registry::new();
        registry.counter("fttt.session.rounds").add(3);
        registry.gauge("fttt.session.samples_k").set(7.0);
        let snap = registry.snapshot();

        let json = metrics_payload(&snap, MetricsFormat::Json);
        assert!(json.ends_with('\n'));
        assert!(json.trim_start().starts_with('{'), "{json}");
        assert!(json.contains("\"fttt.session.rounds\": 3"), "{json}");

        let prom = metrics_payload(&snap, MetricsFormat::Prom);
        assert!(prom.contains("# TYPE"), "{prom}");
        assert!(prom.contains("fttt_session_rounds 3"), "{prom}");
        assert!(prom.contains("fttt_session_samples_k 7"), "{prom}");
    }
}
