//! The fixed workload shapes, read from `perfbench/spec.json`.

use wsn_telemetry::json::JsonValue;

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Driven over TCP against a spawned `wsn-serve`.
    Served,
    /// The in-process fault campaign.
    Campaign,
}

/// `wsn-serve --shards`: one shard per core of the 2-core host the load
/// generator follows.
pub const SHARDS: usize = 2;
/// One session in this many runs extended vectors, on every workload.
pub const EXTENDED_EVERY: u64 = 4;
/// Pushes in flight in the closed-loop windows.
pub const CLOSED_WINDOW: usize = 240;
/// Share of CPU time stolen by the hypervisor (see
/// [`crate::report::cpu_ticks`]) above which a served instance or a
/// campaign pass is flagged: quiet runs of the 2-vCPU VM the benchmark was
/// tuned on showed 0.1-2 %, noisy minutes 8-16 %.
pub const STEAL_LIMIT: f64 = 0.04;

/// One workload's shape. The served fields are 0 on the campaign workload
/// and the campaign fields 0 on served ones.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub kind: Kind,
    pub nodes: usize,
    pub cell_m: f64,
    pub sessions: usize,
    pub node_failure: f64,
    pub open_rate: f64,
    /// Rounds per session stepped before the timed windows.
    pub warmup_rounds: usize,
    /// Rounds per second the closed-loop window may reach; sizes the
    /// rounds generated per session.
    pub closed_budget_rps: f64,
    /// Seconds between `Churn` events during the windows (0 = none).
    pub churn_every_s: f64,
    /// Nodes churned in order, each killed then revived.
    pub churn_nodes: Vec<usize>,
    pub low_rate: f64,
    pub trials: usize,
    pub duration_s: f64,
    pub speedup_trials: usize,
}

impl Workload {
    /// The `PaperParams` of the workload's map and readings.
    pub fn params(&self) -> fttt::PaperParams {
        fttt::PaperParams::default()
            .with_nodes(self.nodes)
            .with_cell_size(self.cell_m)
    }

    /// The churn schedule as `(node, death)` events: kill then revive
    /// each of `churn_nodes` in turn.
    pub fn churn_events(&self) -> Vec<(usize, bool)> {
        self.churn_nodes
            .iter()
            .flat_map(|&n| [(n, true), (n, false)])
            .collect()
    }

    /// Whether churn events run during the timed windows.
    pub fn churns_under_load(&self) -> bool {
        self.churn_every_s > 0.0
    }
}

/// The whole spec file.
#[derive(Debug, Clone)]
pub struct Spec {
    pub second_seed: u64,
    pub open_share: f64,
    pub setup_spawns: usize,
    /// Server instances per served run; their slices are pooled.
    pub instances: usize,
    /// Idle-server churn cycles (kill + revive of every churn node) per
    /// instance, for workloads without churn under load.
    pub idle_churn_cycles: usize,
    pub late_limit_ms: f64,
    pub reconcile_tolerance: f64,
    pub workloads: Vec<Workload>,
}

fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("spec: missing number {key:?}"))
}

fn count(v: &JsonValue, key: &str) -> Result<usize, String> {
    let x = num(v, key)?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(format!("spec: {key:?} must be a whole number, got {x}"));
    }
    Ok(x as usize)
}

impl Spec {
    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let Some(JsonValue::Obj(map)) = doc.get("workloads") else {
            return Err(format!("{path}: no \"workloads\" object"));
        };
        let mut workloads = Vec::new();
        for (name, w) in map {
            let kind = match w.get("kind").and_then(JsonValue::as_str) {
                Some("served") => Kind::Served,
                Some("campaign") => Kind::Campaign,
                other => return Err(format!("spec: workload {name}: bad kind {other:?}")),
            };
            let churn_nodes = w
                .get("churn_nodes")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("spec: workload {name}: no churn_nodes"))?
                .iter()
                .map(|n| n.as_f64().map(|x| x as usize))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("spec: workload {name}: churn_nodes must be numbers"))?;
            let served = kind == Kind::Served;
            let campaign = !served;
            // Fields of the other kind are absent from the spec and read 0.
            let num_if = |on: bool, key: &str| if on { num(w, key) } else { Ok(0.0) };
            let count_if = |on: bool, key: &str| if on { count(w, key) } else { Ok(0) };
            workloads.push(Workload {
                name: name.clone(),
                kind,
                nodes: count(w, "nodes")?,
                cell_m: num(w, "cell_m")?,
                sessions: count_if(served, "sessions")?,
                node_failure: num_if(served, "node_failure")?,
                open_rate: num_if(served, "open_rate")?,
                warmup_rounds: count_if(served, "warmup_rounds")?.max(1),
                closed_budget_rps: num_if(served, "closed_budget_rps")?,
                churn_every_s: num_if(served, "churn_every_s")?,
                churn_nodes,
                low_rate: num_if(served, "low_rate")?,
                trials: count_if(campaign, "trials")?,
                duration_s: num_if(campaign, "duration_s")?,
                speedup_trials: count_if(campaign, "speedup_trials")?,
            });
        }
        Ok(Spec {
            second_seed: count(&doc, "second_seed")? as u64,
            open_share: num(&doc, "open_share")?,
            setup_spawns: count(&doc, "setup_spawns")?,
            instances: count(&doc, "instances")?.max(1),
            idle_churn_cycles: count(&doc, "idle_churn_cycles")?,
            late_limit_ms: num(&doc, "late_limit_ms")?,
            reconcile_tolerance: num(&doc, "reconcile_tolerance")?,
            workloads,
        })
    }

    pub fn workload(&self, name: &str) -> Result<&Workload, String> {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| {
                let names: Vec<&str> = self.workloads.iter().map(|w| w.name.as_str()).collect();
                format!("unknown workload {name:?}; known: {}", names.join(", "))
            })
    }
}
