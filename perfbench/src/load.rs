//! The three loads as step machines, so one process can interleave them
//! and each load's samples spread over the whole measuring window.

use std::time::{Duration, Instant};

use memcomm_kernels::netrun::EngineRun;

use crate::report::Report;
use crate::stats::{median, secs, Timing};
use crate::trace::Tracer;
use crate::{engine, serve, sweep};

/// Seconds of one serving step; the serve metrics are medians over steps.
const SERVE_STEP_S: f64 = 1.0;
/// Serving steps that run even past the load's seconds, so that the serve
/// medians always rest on this many steps.
const SERVE_MIN_STEPS: usize = 6;

/// One load being measured.
pub enum Load<'a> {
    /// Cold `--all` sweeps in jobs-N / jobs-1 pairs.
    Sweep {
        /// Worker count of the parallel sweep.
        jobs: usize,
        /// Host time of each jobs-N sweep.
        parallel: Vec<Timing>,
        /// Host time of each jobs-1 sweep.
        serial: Vec<Timing>,
    },
    /// Engine passes, each sampled separately.
    Engine {
        /// The passes, in `engine::SPECS` order.
        passes: Vec<engine::Pass>,
        /// Host time of every run of each pass.
        timings: Vec<Vec<Timing>>,
        /// The first run of each pass.
        runs: Vec<EngineRun>,
    },
    /// A served session.
    Serve(serve::Session<'a>),
}

impl<'a> Load<'a> {
    /// Sets `load` up (the engine builds its schedules, the server starts).
    pub fn start(
        load: &str,
        jobs: usize,
        seed: u64,
        cat: &'a serve::Catalog,
        tr: &mut Tracer,
    ) -> Load<'a> {
        match load {
            "sweep" => Load::Sweep {
                jobs,
                parallel: Vec::new(),
                serial: Vec::new(),
            },
            "engine" => Load::Engine {
                passes: engine::build(jobs, false, tr),
                timings: Vec::new(),
                runs: Vec::new(),
            },
            _ => Load::Serve(serve::Session::start(jobs, seed, cat, tr)),
        }
    }

    /// Wall seconds measured so far.
    pub fn spent(&self) -> f64 {
        match self {
            Load::Sweep {
                parallel, serial, ..
            } => parallel.iter().chain(serial).map(|t| t.wall).sum(),
            Load::Engine { timings, .. } => timings.iter().flatten().map(|t| t.wall).sum(),
            Load::Serve(session) => session.spent(),
        }
    }

    /// Runs one step that should end within `left` seconds: a sweep pair,
    /// one engine pass (each pass once first, then the least-sampled by
    /// time among those that fit) or [`SERVE_STEP_S`] of serving.
    /// The first full round (one pair, every pass once, or
    /// [`SERVE_MIN_STEPS`] steps) always runs. Returns `false`, having
    /// run nothing, when no step fits.
    pub fn step(&mut self, left: f64, tr: &mut Tracer, rep: &mut Report) -> bool {
        match self {
            Load::Sweep {
                jobs,
                parallel,
                serial,
            } => {
                let pairs: Vec<f64> = parallel
                    .iter()
                    .zip(serial.iter())
                    .map(|(p, s)| p.wall + s.wall)
                    .collect();
                if !pairs.is_empty() && median(&pairs) > left {
                    return false;
                }
                parallel.push(sweep::gated_sweep(*jobs, tr, rep));
                serial.push(sweep::gated_sweep(1, tr, rep));
            }
            Load::Engine {
                passes,
                timings,
                runs,
            } => {
                let i = if timings.len() < passes.len() {
                    timings.push(Vec::new());
                    timings.len() - 1
                } else {
                    let walls = |i: usize| timings[i].iter().map(|t| t.wall).collect::<Vec<_>>();
                    let spent = |i: usize| walls(i).iter().sum::<f64>();
                    let Some(i) = (0..passes.len())
                        .filter(|&i| median(&walls(i)) <= left)
                        .min_by(|&a, &b| spent(a).total_cmp(&spent(b)))
                    else {
                        return false;
                    };
                    i
                };
                let (timing, run) = engine::run(&passes[i], 0, tr, rep);
                timings[i].push(timing);
                if runs.len() <= i {
                    runs.push(run);
                }
            }
            Load::Serve(session) => {
                if session.steps() >= SERVE_MIN_STEPS && left < SERVE_STEP_S {
                    return false;
                }
                session.drive(
                    serve::Until::Deadline(Instant::now() + Duration::from_secs_f64(SERVE_STEP_S)),
                    tr,
                );
            }
        }
        true
    }

    /// Adds the load's end-to-end metrics to `rep`.
    pub fn finish(self, tr: &mut Tracer, rep: &mut Report) {
        match self {
            Load::Sweep {
                parallel, serial, ..
            } => sweep::metrics(&parallel, &serial, rep),
            Load::Engine {
                passes,
                timings,
                runs,
            } => engine::metrics(&passes, &timings, &runs, rep),
            Load::Serve(session) => {
                let cat = session.catalog();
                let pass = session.finish(tr, rep);
                serve::metrics(&pass, cat, rep);
            }
        }
    }
}

/// Measures every `(load, seconds)` pair, interleaved: each step goes to
/// the load that has used the smallest share of its seconds, until no
/// load has a step that fits what is left of its own seconds and of the
/// pairs' total (so a first round that overran its share, as on a
/// contended host, shortens the others). Calls `before_step` before
/// every step.
pub fn measure(
    loads: &[(&str, f64)],
    jobs: usize,
    seed: u64,
    before_step: &mut dyn FnMut(),
    rep: &mut Report,
) {
    let cat = serve::Catalog::new();
    let mut off = Tracer::new(false, Instant::now());
    let mut active: Vec<(Load, f64)> = loads
        .iter()
        .map(|&(name, seconds)| (Load::start(name, jobs, seed, &cat, &mut off), seconds))
        .collect();
    let total: f64 = loads.iter().map(|&(_, seconds)| seconds).sum();
    let start = Instant::now();
    let mut done = vec![false; active.len()];
    while let Some(i) = (0..active.len()).filter(|&i| !done[i]).min_by(|&a, &b| {
        let share = |i: usize| active[i].0.spent() / active[i].1;
        share(a).total_cmp(&share(b))
    }) {
        let (load, seconds) = &mut active[i];
        let left = (*seconds - load.spent()).min(total - secs(start));
        before_step();
        done[i] = !load.step(left, &mut off, rep);
    }
    for (load, _) in active {
        load.finish(&mut off, rep);
    }
}
