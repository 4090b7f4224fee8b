//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --serve-bin PATH
//! ```
//!
//! Runs one workload of `perfbench/spec.json`: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of the
//! traced run. Prints a host line, notes, any failures, and last a JSON
//! result line `{"correct", "attempted", "failed", "metrics"}`. Start it
//! through `perfbench/run.py`, which builds `wsn-serve` and this binary.

mod campaign;
mod gen;
mod load;
mod report;
mod served;
mod spec;
mod trace;
mod traced;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: String,
    spec: String,
    commit: String,
    /// Helper mode: run campaign passes and print trials/s (the traced
    /// run starts this pinned to one core).
    campaign_pass: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --serve-bin PATH [--spec FILE] [--commit ID]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        serve_bin: String::new(),
        spec: "perfbench/spec.json".into(),
        commit: "unknown".into(),
        campaign_pass: false,
    };
    let mut seen_seed = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--campaign-pass" {
            a.campaign_pass = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => {
                a.seed = value.parse().map_err(|e| format!("--seed: {e}"))?;
                seen_seed = true;
            }
            "--seconds" => a.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--serve-bin" => a.serve_bin = value,
            "--spec" => a.spec = value,
            "--commit" => a.commit = value,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.workload.is_empty() || !seen_seed || !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--workload, --seed and --seconds (0 < S <= 600) are required".into());
    }
    Ok(a)
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let spec = spec::Spec::load(&args.spec)?;
    let w = spec.workload(&args.workload)?;
    if args.campaign_pass {
        return traced::campaign_pass_rate(w, args.seed);
    }
    if w.kind == spec::Kind::Served && !std::path::Path::new(&args.serve_bin).is_file() {
        return Err(format!(
            "--serve-bin {:?} is not a file (build wsn-serve first; run.py does)",
            args.serve_bin
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} kernel={:?} client_shares_cores_with_server=true commit={} workload={} seed={} second_seed={} seconds={} trace={}",
        fttt::vector::active_kernel(),
        args.commit,
        w.name,
        args.seed,
        spec.second_seed,
        args.seconds,
        u8::from(args.trace)
    );
    match (args.trace, w.kind) {
        (true, _) => traced::run(&spec, w, args.seed, args.seconds, &args.serve_bin),
        (false, spec::Kind::Served) => {
            served::run(&spec, w, args.seed, args.seconds, &args.serve_bin)
        }
        (false, spec::Kind::Campaign) => campaign::run(w, args.seed, args.seconds),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for n in &outcome.notes {
                println!("{n}");
            }
            for f in &outcome.failures {
                println!("FAILED: {f}");
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
