//! The `engine` workload: `kernels::netrun::run_rounds` passes on the
//! event engine, three at jobs N and one serial.

use std::time::Instant;

use memcomm_kernels::netrun::{self, EngineOptions, EngineRun, Table6Kernel};
use memcomm_kernels::TransposeKernel;
use memcomm_machines::Machine;
use memcomm_netsim::topology::Topology;
use memcomm_netsim::traffic::{aapc_xor_schedule, Flow};

use crate::report::Report;
use crate::stats::{median, Timing};
use crate::trace::{Tracer, BENCH};

/// One engine pass: a schedule on a topology, with its pinned outcome.
pub struct Pass {
    /// Metric this pass reports.
    pub metric: &'static str,
    machine: Machine,
    nodes: usize,
    /// Engine workers (1 = the serial baseline).
    pub jobs: usize,
    topo: Topology,
    rounds: Vec<Vec<Flow>>,
    digest: u64,
}

/// The four passes, in run order. The Paragon pass runs only in the
/// traced run and reports a per-layer metric: at jobs N it spends most of
/// its wall time waiting for threads to be scheduled (12–18 s a pass on a
/// contended 2-vCPU host), more than an untraced run can afford.
const SPECS: &[(&str, bool, usize, bool, u64)] = &[
    // (metric, paragon?, nodes, serial?, pinned digest)
    ("engine_t3d64_mcps", false, 64, false, 0x83f1_71ed_4f72_cbdf),
    (
        "engine.paragon64_mcps",
        true,
        64,
        false,
        0x879b_5006_4f77_5248,
    ),
    (
        "engine_t3d1024_mcps",
        false,
        1024,
        false,
        0xfbd0_62cf_b76f_4c95,
    ),
    (
        "engine_t3d64_serial_mcps",
        false,
        64,
        true,
        0x83f1_71ed_4f72_cbdf,
    ),
];

/// XOR all-to-all prefix of the 1024-node pass: rounds and words per pair.
const XOR_ROUNDS: usize = 32;
const XOR_WORDS: u64 = 32;

/// Builds the topology and schedule of every pass (`all`) or of those
/// that report end-to-end metrics (the workload's set-up).
pub fn build(jobs: usize, all: bool, tr: &mut Tracer) -> Vec<Pass> {
    SPECS
        .iter()
        .filter(|&&(_, paragon, ..)| all || !paragon)
        .map(|&(metric, paragon, nodes, serial, digest)| {
            let machine = if paragon {
                Machine::paragon()
            } else {
                Machine::t3d()
            };
            let topo = tr
                .span("engine", "engine_topology", || {
                    netrun::engine_topology(&machine, Some(nodes))
                })
                .expect("the engine topologies build");
            let rounds = if nodes == 64 {
                let kernel = Table6Kernel::Transpose(TransposeKernel::paper_instance());
                tr.span("engine", "Table6Kernel::rounds", || kernel.rounds(&topo))
                    .expect("the transpose decomposes over 64 nodes")
            } else {
                tr.span("engine", "aapc_xor_schedule", || {
                    let mut rounds = aapc_xor_schedule(nodes, XOR_WORDS * 8);
                    rounds.truncate(XOR_ROUNDS);
                    rounds
                })
            };
            Pass {
                metric,
                machine,
                nodes,
                jobs: if serial { 1 } else { jobs },
                topo,
                rounds,
                digest,
            }
        })
        .collect()
}

/// Process CPU seconds of one [`build`] of the end-to-end passes.
pub fn setup_once(jobs: usize) -> f64 {
    let mut off = Tracer::new(false, Instant::now());
    let (timing, passes) = Timing::of(|| build(jobs, false, &mut off));
    drop(passes);
    timing.cpu
}

/// Runs one pass with telemetry sampling every `sample_every` cycles
/// (0 = off); returns its host time and the run, after checking the
/// pinned digest.
pub fn run(
    pass: &Pass,
    sample_every: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> (Timing, EngineRun) {
    let opts = EngineOptions {
        nodes: Some(pass.nodes),
        jobs: pass.jobs,
        shards: 0,
        record_events: false,
        sample_every,
        reference_scheduler: false,
    };
    let root = tr.open(BENCH, pass.metric, 0);
    let (timing, out) = Timing::of(|| {
        tr.span("engine", "run_rounds", || {
            netrun::run_rounds(&pass.machine, &pass.topo, &pass.rounds, &opts)
        })
    });
    tr.close(root);
    let run = match out {
        Ok(run) => run,
        Err(e) => panic!("{}: engine failed: {e}", pass.metric),
    };
    let ok = run.digest == pass.digest;
    if !ok {
        eprintln!("{}: MISMATCH digest {:016x}", pass.metric, run.digest);
    }
    report.op(ok);
    (timing, run)
}

/// Simulated megacycles per process CPU second of every pass (median
/// over its runs).
pub fn metrics(passes: &[Pass], timings: &[Vec<Timing>], runs: &[EngineRun], report: &mut Report) {
    for ((pass, t), run) in passes.iter().zip(timings).zip(runs) {
        let cpu: Vec<f64> = t.iter().map(|t| t.cpu).collect();
        let wall: Vec<f64> = t.iter().map(|t| t.wall).collect();
        eprintln!(
            "{}: cpu {cpu:.3?} s, wall {wall:.3?} s for {} cycles",
            pass.metric, run.cycles
        );
        report.metric(
            pass.metric,
            run.cycles as f64 / median(&cpu) / 1e6,
            "Mcycles/s",
        );
    }
}
