//! The traced run: per-layer metrics measured from outside, through the
//! public functions of each layer.
//!
//! Each of the three loads runs once with spans around every call the
//! benchmark makes into a layer; the workload's own load also runs once
//! untraced first, so `trace.overhead` compares the two. Micro-probes then
//! time single layer functions in isolation. End-to-end metrics never
//! come from this run.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use memcomm_bench::experiments::{self, EXCHANGE_WORDS, MICRO_WORDS};
use memcomm_bench::runner::SECTIONS;
use memcomm_bench::service::{dispatch, Request, ServiceState};
use memcomm_commops::{run_exchange, Style};
use memcomm_kernels::netrun::EngineRun;
use memcomm_machines::memo::{self, machine_fingerprint, MemoCache, MemoConfig};
use memcomm_machines::{microbench, Machine};
use memcomm_memsim::stats as simstats;
use memcomm_model::{buffer_packing_expr, chained_expr, AccessPattern, BasicTransfer};
use memcomm_util::json::Json;
use memcomm_util::par;

use crate::report::Report;
use crate::stats::{median, secs, Timing};
use crate::trace::{Tracer, BENCH};
use crate::{engine, serve, sweep};

/// Requests each client sends in the traced serve pass (N × 3500 × 15%
/// storms leaves over ten samples beyond the storm p99 at N = 2).
const TRACE_REQUESTS: usize = 3500;
/// `par_map` calls timed by the fan-out probe.
const FANOUT_CALLS: usize = 2000;
/// Telemetry sampling interval of the overhead guard.
const SAMPLE_EVERY: u64 = 64;

/// The engine load's traced round.
struct EngineRound {
    build_s: f64,
    passes: Vec<engine::Pass>,
    runs: Vec<(Timing, EngineRun)>,
}

fn sweep_pair(jobs: usize, tr: &mut Tracer, rep: &mut Report) -> (f64, f64) {
    (
        sweep::gated_sweep(jobs, tr, rep).wall,
        sweep::gated_sweep(1, tr, rep).wall,
    )
}

fn engine_round(jobs: usize, tr: &mut Tracer, rep: &mut Report) -> EngineRound {
    let t = Instant::now();
    let passes = engine::build(jobs, true, tr);
    let build_s = secs(t);
    let runs = passes.iter().map(|p| engine::run(p, 0, tr, rep)).collect();
    EngineRound {
        build_s,
        passes,
        runs,
    }
}

fn serve_pass(
    jobs: usize,
    seed: u64,
    cat: &serve::Catalog,
    tr: &mut Tracer,
    rep: &mut Report,
) -> serve::Pass {
    let mut session = serve::Session::start(jobs, seed, cat, tr);
    session.drive(serve::Until::Count(TRACE_REQUESTS), tr);
    session.finish(tr, rep)
}

/// Runs `f` under a root span named `load`, writes the spans to `path`
/// and returns them with the wall time and `f`'s result.
fn traced<R>(
    load: &str,
    origin: Instant,
    path: &Path,
    f: impl FnOnce(&mut Tracer) -> R,
) -> (Tracer, f64, R) {
    let mut tr = Tracer::new(true, origin);
    let root = tr.open(BENCH, load, 0);
    let t = Instant::now();
    let out = f(&mut tr);
    let wall = secs(t);
    tr.close(root);
    if let Err(e) = tr.write(path) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    (tr, wall, out)
}

/// Runs the traced measurement for `workload` and returns its per-layer
/// metrics; spans go to `out_dir`.
pub fn run(workload: &str, jobs: usize, seed: u64, out_dir: &Path) -> Report {
    let mut rep = Report::default();
    let cat = serve::Catalog::new();
    let t = Instant::now();
    let mut off = Tracer::new(false, t);
    match workload {
        "sweep" => {
            sweep_pair(jobs, &mut off, &mut rep);
        }
        "engine" => {
            engine_round(jobs, &mut off, &mut rep);
        }
        _ => {
            serve_pass(jobs, seed, &cat, &mut off, &mut rep);
        }
    }
    let untraced = secs(t);

    let origin = Instant::now();
    let path = |load: &str| out_dir.join(format!("spans-{workload}-{load}.json"));
    let (sweep_tr, sweep_wall, (sweep_parallel, sweep_serial)) =
        traced("sweep", origin, &path("sweep"), |tr| {
            sweep_pair(jobs, tr, &mut rep)
        });
    let (engine_tr, engine_wall, round) = traced("engine", origin, &path("engine"), |tr| {
        engine_round(jobs, tr, &mut rep)
    });
    let (serve_tr, serve_wall, served) = traced("serve", origin, &path("serve"), |tr| {
        serve_pass(jobs, seed, &cat, tr, &mut rep)
    });
    let (own, own_wall) = match workload {
        "sweep" => (sweep_tr, sweep_wall),
        "engine" => (engine_tr, engine_wall),
        _ => (serve_tr, serve_wall),
    };
    compose(workload, &own, own_wall, jobs, &mut rep);
    rep.metric("trace.overhead", own_wall / untraced, "ratio");

    rep.metric(
        "runner.parallel_efficiency",
        sweep_serial / (jobs as f64 * sweep_parallel),
        "ratio",
    );
    engine_layers(round, jobs, &mut rep);
    serve::metrics(&served, &cat, &mut rep);
    service_layers(&cat, &served, &path("serve-replay"), &mut rep);
    memsim_memo_core_layers(&mut rep);
    commops_layer(&mut rep);
    runner_sections(jobs, &mut rep);
    rep
}

/// `trace.coverage`: layer self time over the traced thread time, with the
/// per-layer sums printed next to the wall.
fn compose(workload: &str, tr: &Tracer, wall: f64, jobs: usize, rep: &mut Report) {
    let by_layer = tr.self_time_by_layer();
    let thread_time: f64 = by_layer.values().sum();
    let layers: f64 = by_layer
        .iter()
        .filter(|(layer, _)| **layer != BENCH)
        .map(|(_, s)| s)
        .sum();
    let parts: Vec<String> = by_layer
        .iter()
        .map(|(l, s)| format!("{l} {s:.3}s"))
        .collect();
    eprintln!(
        "compose {workload}: layer self times {layers:.3}s of {thread_time:.3}s traced thread time \
         ({}); wall {wall:.3}s on {jobs} thread(s)",
        parts.join(", ")
    );
    rep.metric("trace.coverage", layers / thread_time, "ratio");
}

fn engine_layers(round: EngineRound, jobs: usize, rep: &mut Report) {
    let EngineRound {
        build_s,
        passes,
        runs,
    } = round;
    // Pass order is engine::SPECS: T3D 64 at N, Paragon 64, T3D 1024, T3D 64 serial.
    let (t3d_wall, t3d) = (runs[0].0.wall, &runs[0].1);
    let (kilo_wall, kilo) = (runs[2].0.wall, &runs[2].1);
    let serial_wall = runs[3].0.wall;
    let (paragon, paragon_run) = &runs[1];
    // Like the end-to-end engine metrics: per process CPU second.
    rep.metric(
        passes[1].metric,
        paragon_run.cycles as f64 / paragon.cpu / 1e6,
        "Mcycles/s",
    );
    rep.metric("engine.build_ms", build_s * 1e3, "ms");
    rep.metric("engine.windows", t3d.windows as f64, "count");
    rep.metric("engine.flit_hops", t3d.flit_hops as f64, "count");
    rep.metric(
        "engine.ns_per_window",
        t3d_wall * 1e9 / t3d.windows as f64,
        "ns",
    );
    rep.metric(
        "engine.ns_per_flit_hop",
        kilo_wall * 1e9 / kilo.flit_hops as f64,
        "ns",
    );
    rep.metric("engine.parallel_speedup", serial_wall / t3d_wall, "ratio");

    let items = vec![0u64; jobs];
    let calls: Vec<f64> = (0..FANOUT_CALLS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(par::par_map(jobs, &items, |x| std::hint::black_box(x + 1)));
            secs(t)
        })
        .collect();
    let fanout_s = median(&calls);
    rep.metric("par.fanout_us", fanout_s * 1e6, "us");
    rep.metric(
        "par.fanout_share",
        fanout_s * t3d.windows as f64 / t3d_wall,
        "ratio",
    );
    eprintln!(
        "compose engine: par.fanout_us x engine.windows = {:.1} us x {} = {:.3}s predicted; \
         measured jobs-{jobs} minus jobs-1 gap on the T3D transpose = {t3d_wall:.3}s - {serial_wall:.3}s = {:.3}s",
        fanout_s * 1e6,
        t3d.windows,
        fanout_s * t3d.windows as f64,
        t3d_wall - serial_wall
    );

    let serial = &passes[3];
    let mut off = Tracer::new(false, Instant::now());
    let (plain, _) = engine::run(serial, 0, &mut off, rep);
    let (sampled, _) = engine::run(serial, SAMPLE_EVERY, &mut off, rep);
    rep.metric("obs.sampling_overhead", sampled.wall / plain.wall, "ratio");
}

/// Replays every served request in-process, in send order, on a fresh
/// state with the server's cache bounds: parse, dispatch and render times
/// per request; the gate wait is what remains of the client latency.
fn service_layers(cat: &serve::Catalog, pass: &serve::Pass, spans: &Path, rep: &mut Report) {
    let state = ServiceState::new(
        MemoConfig {
            capacity: serve::CACHE_ENTRIES,
            ..MemoConfig::default()
        },
        1,
    );
    let mut tr = Tracer::new(true, Instant::now());
    let (mut parse, mut render, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let mut dispatch_by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &pass.samples {
        let t0 = tr.clock_ns();
        let text = std::str::from_utf8(&cat.payloads[s.idx]).expect("payloads are UTF-8");
        let req =
            Request::parse(&Json::parse(text).expect("payloads are JSON")).expect("payloads parse");
        let t1 = tr.clock_ns();
        let outcome = dispatch(&req, &state);
        let t2 = tr.clock_ns();
        std::hint::black_box(outcome.reply.render());
        let t3 = tr.clock_ns();
        tr.record("util", "parse", s.id, t0, t1);
        tr.record("service", "dispatch", s.id, t1, t2);
        tr.record("util", "render", s.id, t2, t3);
        parse.push((t1 - t0) as f64 / 1e3);
        dispatch_by_class
            .entry(req.class())
            .or_default()
            .push((t2 - t1) as f64 / 1e3);
        render.push((t3 - t2) as f64 / 1e3);
        residual.push((s.latency_us - (t3 - t0) as f64 / 1e3 - pass.ping_rtt_us).max(0.0));
    }
    if let Err(e) = tr.write(spans) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    rep.metric("service.ping_rtt_us", pass.ping_rtt_us, "us");
    rep.metric("service.parse_us", median(&parse), "us");
    for class in ["query", "adversary", "sweep"] {
        let d = dispatch_by_class.get(class).map_or(f64::NAN, |d| median(d));
        rep.metric(format!("service.dispatch_us.{class}"), d, "us");
    }
    rep.metric("service.render_us", median(&render), "us");
    rep.metric(
        "service.gate_wait_us",
        residual.iter().sum::<f64>() / residual.len().max(1) as f64,
        "us",
    );
    let cache = pass.stats.get("cache");
    let field = |k: &str| {
        cache
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    rep.metric("memo.hit_ratio", field("hit_rate"), "ratio");
    rep.metric("memo.evictions", field("evictions"), "count");
}

/// `measure_table` per machine on a fresh memo handle (serial), a memo hit,
/// and `TransferExpr::estimate` over the Section 5 expressions.
fn memsim_memo_core_layers(rep: &mut Report) {
    let machines = [Machine::t3d(), Machine::paragon()];
    par::set_jobs(1);
    let cache = MemoCache::unbounded();
    let tables = {
        let _installed = memo::install(&cache);
        let before = simstats::counters();
        let t = Instant::now();
        let tables: Vec<_> = machines
            .iter()
            .map(|m| microbench::measure_table(m, MICRO_WORDS).expect("the rate tables measure"))
            .collect();
        let wall = secs(t);
        let cycles = simstats::counters().since(before).cycles;
        rep.metric("memsim.measure_table_ms", wall * 1e3, "ms");
        rep.metric("memsim.sim_cycles", cycles as f64, "count");
        rep.metric("memsim.ns_per_sim_cycle", wall * 1e9 / cycles as f64, "ns");
        tables
    };

    let key = (
        machine_fingerprint(&machines[0]),
        BasicTransfer::parse("1C1").expect("1C1 parses"),
        MICRO_WORDS,
    );
    let hot = MemoCache::new(MemoConfig::default());
    hot.get_or_insert(key, || Ok(None))
        .expect("the probe value is cached");
    let lookups = 100_000;
    let t = Instant::now();
    for _ in 0..lookups {
        std::hint::black_box(hot.get_or_insert(std::hint::black_box(key), || {
            unreachable!("the key is present")
        }))
        .expect("hits return the cached value");
    }
    rep.metric("memo.hit_ns", secs(t) * 1e9 / f64::from(lookups), "ns");

    let ops = [
        "1Q1", "1Q16", "16Q1", "1Q64", "64Q1", "16Q64", "1Qw", "wQ1", "wQw",
    ];
    let mut exprs = Vec::new();
    for (m, table) in machines.iter().zip(&tables) {
        for op in ops {
            let (x, y) = experiments::parse_q(op);
            for e in [
                buffer_packing_expr(x, y, experiments::bp_plan(m)),
                chained_expr(x, y, experiments::chained_plan(m)),
            ]
            .into_iter()
            .flatten()
            {
                exprs.push((e, table));
            }
        }
    }
    let reps = 1000;
    let t = Instant::now();
    for _ in 0..reps {
        for (e, table) in &exprs {
            std::hint::black_box(e.estimate(table)).ok();
        }
    }
    rep.metric(
        "core.estimate_ns",
        secs(t) * 1e9 / (reps * exprs.len()) as f64,
        "ns",
    );
}

/// `run_exchange` at the sweep's exchange size (T3D, 1Q1, buffer packing).
fn commops_layer(rep: &mut Report) {
    let m = Machine::t3d();
    let cfg = experiments::paper_exchange_cfg(&m, EXCHANGE_WORDS);
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            run_exchange(
                &m,
                AccessPattern::Contiguous,
                AccessPattern::Contiguous,
                Style::BufferPacking,
                &cfg,
            )
            .expect("the exchange runs");
            secs(t)
        })
        .collect();
    rep.metric("commops.exchange_ms", median(&walls) * 1e3, "ms");
}

/// `run_sweep` with one section selected at a time, cold, at jobs N.
fn runner_sections(jobs: usize, rep: &mut Report) {
    let mut off = Tracer::new(false, Instant::now());
    for section in SECTIONS {
        let only: BTreeSet<String> = [section.to_string()].into_iter().collect();
        let (timing, _, _) = sweep::cold_sweep(jobs, only, &mut off);
        rep.metric(
            format!("runner.section_ms.{section}"),
            timing.wall * 1e3,
            "ms",
        );
    }
}
