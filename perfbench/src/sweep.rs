//! The `sweep` workload: the full `--all` reproduction through
//! `runner::run_sweep`, on a fresh memo cache each time, at jobs N and
//! at jobs 1.

use std::collections::BTreeSet;

use memcomm_bench::runner::{self, SweepOptions};
use memcomm_machines::{memo, Machine};

use crate::report::Report;
use crate::stats::{median, Timing};
use crate::trace::{Tracer, BENCH};

/// FNV-1a of the rendered `--all` report.
const REPORT_FNV: u64 = 0x9792_44a5_79f2_5c9b;
/// Result rows of the `--all` report.
const POINTS: u64 = 183;
/// Memo hits and misses of one cold serial sweep.
const SERIAL_HITS: u64 = 314;
/// See [`SERIAL_HITS`].
const SERIAL_MISSES: u64 = 144;

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One cold sweep of the selected `sections` (empty = `--all`): host
/// time for `run_sweep` plus rendering the report, and the report's FNV
/// with the run's metrics.
pub fn cold_sweep(
    jobs: usize,
    sections: BTreeSet<String>,
    tr: &mut Tracer,
) -> (Timing, u64, runner::RunMetrics) {
    assert!(
        memo::current().is_none(),
        "a cold sweep needs no installed memo cache"
    );
    let opts = SweepOptions {
        jobs,
        sections,
        ..SweepOptions::default()
    };
    let (timing, (text, metrics)) = Timing::of(|| {
        let (report, metrics) = tr.span("runner", "run_sweep", || runner::run_sweep(&opts));
        let text = tr.span("util", "Json::render", || report.to_json().render());
        (text, metrics)
    });
    (timing, fnv64(text.as_bytes()), metrics)
}

/// One `--all` sweep at `jobs` with its correctness gate: the pinned FNV
/// and point count, and at jobs 1 the pinned memo traffic.
pub fn gated_sweep(jobs: usize, tr: &mut Tracer, report: &mut Report) -> Timing {
    let root = tr.open(BENCH, &format!("sweep jobs={jobs}"), 0);
    let (timing, fnv, m) = cold_sweep(jobs, BTreeSet::new(), tr);
    let memo_ok = jobs != 1 || (m.cache.hits == SERIAL_HITS && m.cache.misses == SERIAL_MISSES);
    let ok = fnv == REPORT_FNV && m.points == POINTS && memo_ok;
    if !ok {
        eprintln!(
            "sweep jobs={jobs}: MISMATCH fnv {fnv:016x} points {} memo {}/{}",
            m.points, m.cache.hits, m.cache.misses
        );
    }
    report.op(ok);
    tr.close(root);
    timing
}

/// Process CPU seconds to build what a sweep starts from — both machines
/// and a fresh memo cache — averaged over a batch of 100 (one build is too
/// short for the clock).
pub fn setup_once() -> f64 {
    let (timing, ()) = Timing::of(|| {
        for _ in 0..100 {
            std::hint::black_box((
                Machine::t3d(),
                Machine::paragon(),
                memo::MemoCache::unbounded(),
            ));
        }
    });
    timing.cpu / 100.0
}

/// The end-to-end sweep metrics from pair samples: median process CPU
/// seconds per sweep.
pub fn metrics(parallel: &[Timing], serial: &[Timing], report: &mut Report) {
    for (name, samples) in [("sweep_s", parallel), ("sweep_serial_s", serial)] {
        let cpu: Vec<f64> = samples.iter().map(|t| t.cpu).collect();
        let wall: Vec<f64> = samples.iter().map(|t| t.wall).collect();
        eprintln!("{name}: cpu {cpu:.3?} s, wall {wall:.3?} s");
        report.metric(name, median(&cpu), "s");
    }
}
