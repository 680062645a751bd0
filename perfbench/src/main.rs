//! `perfbench` — measures memcomm from outside, through its public crate
//! APIs.
//!
//! ```text
//! perfbench run       --workload W --seed S --seconds T   # W's own load, its share of T
//! perfbench companion --workload W --seed S --seconds R   # the other two loads for R
//! perfbench trace     --workload W --seed S --out DIR     # per-layer metrics, spans to DIR
//! ```
//!
//! Each prints one JSON object (`attempted`, `failed`, `metrics`) as its
//! last stdout line; `run.py` builds this binary, runs the modes in
//! separate processes and assembles the result. See README.md.

mod engine;
mod load;
mod probes;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// The three loads, one per workload.
const LOADS: [&str; 3] = ["sweep", "engine", "serve"];

/// Share of a run's `--seconds` a load gets when it runs as a companion
/// of another workload (it still completes at least one round). The
/// workload's own load gets what the other two leave.
fn companion_share(load: &str) -> f64 {
    match load {
        "sweep" => 0.25,
        "engine" => 0.35,
        _ => 0.25,
    }
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (run, companion or trace)")?;
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        out: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !LOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The workload's own load. Its set-up is timed once before every step,
/// so the set-up samples spread over the run like the load's own; the
/// process's peak RSS is that of this load alone.
fn primary(workload: &str, jobs: usize, seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let mut setups = Vec::new();
    let mut sample_setup = || {
        setups.push(match workload {
            "sweep" => sweep::setup_once(),
            "engine" => engine::setup_once(jobs),
            _ => serve::setup_once(jobs),
        })
    };
    let others: f64 = LOADS
        .iter()
        .filter(|&&l| l != workload)
        .map(|l| companion_share(l))
        .sum();
    let own = [(workload, seconds * (1.0 - others))];
    load::measure(&own, jobs, seed, &mut sample_setup, &mut rep);
    rep.metric("setup_s", stats::median(&setups), "s");
    rep.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    rep
}

/// The other two loads, interleaved, splitting `seconds` (what the run
/// has left after the own load) in proportion to their companion shares.
fn companion(workload: &str, jobs: usize, seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let others: Vec<&str> = LOADS.iter().copied().filter(|&l| l != workload).collect();
    let total: f64 = others.iter().map(|l| companion_share(l)).sum();
    let others: Vec<(&str, f64)> = others
        .into_iter()
        .map(|l| (l, seconds * companion_share(l) / total))
        .collect();
    load::measure(&others, jobs, seed, &mut || {}, &mut rep);
    rep
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = memcomm_util::par::available_jobs();
    let rep = match args.mode.as_str() {
        "run" => primary(&args.workload, jobs, args.seed, args.seconds),
        "companion" => companion(&args.workload, jobs, args.seed, args.seconds),
        "trace" => probes::run(&args.workload, jobs, args.seed, &args.out),
        other => {
            eprintln!("perfbench: unknown mode {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", rep.to_json().render().replace('\n', ""));
    ExitCode::SUCCESS
}
