//! Fuzzed integration tests of the discrete-event network engine: random
//! traffic on random small topologies must always drain — no deadlock, no
//! wedged watchdog, every injected word delivered — and the event order
//! must not depend on the worker count.

use memcomm_memsim::fault::{FaultConfig, FaultPlan};
use memcomm_memsim::node::NodeParams;
use memcomm_netsim::adversary::{self, AdversaryConfig, AdversaryKind};
use memcomm_netsim::engine::{run_flows, run_schedule, EngineConfig, RetryPolicy};
use memcomm_netsim::link::LinkParams;
use memcomm_netsim::topology::Topology;
use memcomm_netsim::traffic::{self, Flow};
use memcomm_util::check::forall;
use memcomm_util::rng::Rng;

fn random_topology(rng: &mut Rng) -> Topology {
    let ndims = rng.range_usize(1, 4);
    let dims: Vec<u32> = (0..ndims).map(|_| rng.range_u32(1, 5)).collect();
    if rng.bool() {
        Topology::torus(&dims)
    } else {
        Topology::mesh(&dims)
    }
}

fn fuzz_cfg(rng: &mut Rng) -> EngineConfig {
    let link = LinkParams {
        bytes_per_cycle: rng.range_f64(1.0, 9.0),
        packet_words: 16,
        header_bytes: 8,
        adp_extra_bytes: 8,
        latency_cycles: rng.range_u64(1, 25),
        congestion: 1.0,
    };
    let mut cfg = EngineConfig::new(link, NodeParams::default());
    cfg.nodes_per_port = rng.range_u32(1, 3);
    cfg.vc_slots = rng.range_u32(2, 65);
    cfg.source_word_cycles = rng.range_u64(0, 4);
    cfg.drain_word_cycles = rng.range_u64(0, 4);
    cfg.address_data_pairs = rng.bool();
    cfg.jobs = 1;
    cfg
}

fn random_flows(rng: &mut Rng, topo: &Topology) -> Vec<Flow> {
    let n = topo.len();
    (0..rng.range_usize(0, 14))
        .map(|_| Flow {
            src: rng.range_usize(0, n),
            dst: rng.range_usize(0, n),
            bytes: rng.range_u64(0, 40 * 8),
        })
        .collect()
}

/// Random flow sets on random topologies always drain, watchdog-clean:
/// every word that enters the network leaves it, whatever the shape, the
/// buffering, the pacing, or the port sharing.
#[test]
fn random_traffic_always_drains() {
    forall("random_traffic_always_drains", 192, |rng| {
        let topo = random_topology(rng);
        let cfg = fuzz_cfg(rng);
        let flows = random_flows(rng, &topo);
        let expected: u64 = flows
            .iter()
            .filter(|f| f.src != f.dst)
            .map(|f| f.bytes.div_ceil(8))
            .sum();
        let out = run_flows(&topo, &flows, &cfg)
            .unwrap_or_else(|e| panic!("engine failed on {:?}: {e}", topo.dims()));
        assert_eq!(out.words, expected, "every word must drain");
        assert_eq!(out.dropped, 0, "no faults configured");
        if expected == 0 {
            assert_eq!(out.cycles, 0);
        }
    });
}

/// Multi-round schedules drain too, and the schedule digest is reproducible
/// run to run (same inputs, same event order).
#[test]
fn random_schedules_drain_and_replay() {
    forall("random_schedules_drain_and_replay", 48, |rng| {
        let topo = random_topology(rng);
        let cfg = fuzz_cfg(rng);
        let rounds: Vec<Vec<Flow>> = (0..rng.range_usize(1, 4))
            .map(|_| random_flows(rng, &topo))
            .collect();
        let a = run_schedule(&topo, &rounds, &cfg).expect("schedule runs");
        let b = run_schedule(&topo, &rounds, &cfg).expect("schedule replays");
        assert_eq!(a.digest, b.digest, "schedule digest must replay");
        assert_eq!(a.cycles, b.cycles);
    });
}

/// The conservative-window fan-out is invisible: any worker count produces
/// the same digest, cycle count, and aggregate counters as a serial run,
/// on every fuzzed topology.
#[test]
fn worker_count_never_changes_the_event_order() {
    forall("worker_count_never_changes_the_event_order", 48, |rng| {
        let topo = random_topology(rng);
        let mut cfg = fuzz_cfg(rng);
        cfg.record_events = true;
        let flows = random_flows(rng, &topo);
        cfg.jobs = 1;
        let serial = run_flows(&topo, &flows, &cfg).expect("serial run");
        for jobs in [2, 5] {
            cfg.jobs = jobs;
            let par = run_flows(&topo, &flows, &cfg).expect("parallel run");
            assert_eq!(par.digest, serial.digest, "digest at jobs={jobs}");
            assert_eq!(par.events, serial.events, "events at jobs={jobs}");
            assert_eq!(par.cycles, serial.cycles);
            assert_eq!(par.flit_hops, serial.flit_hops);
        }
    });
}

/// A fuzzed topology scaled up to 512 nodes (same construction as the
/// wheel-vs-heap scale tier): random dimensions grown under the node cap,
/// tail stretched so the big sizes are actually drawn.
fn random_scaled_topology(rng: &mut Rng) -> Topology {
    let mut dims: Vec<u32> = Vec::new();
    let mut nodes = 1usize;
    for _ in 0..rng.range_usize(1, 4) {
        let d = rng.range_u32(2, 9);
        if nodes * d as usize > 512 {
            break;
        }
        nodes *= d as usize;
        dims.push(d);
    }
    if dims.is_empty() {
        dims.push(rng.range_u32(2, 9));
        nodes = *dims.last().unwrap() as usize;
    }
    while nodes * 2 <= 512 && rng.bool() {
        *dims.last_mut().unwrap() *= 2;
        nodes *= 2;
    }
    if rng.bool() {
        Topology::torus(&dims)
    } else {
        Topology::mesh(&dims)
    }
}

/// The scale tier: random traffic on topologies up to 512 nodes under a
/// random shard count drains watchdog-clean with exact word AND flit-hop
/// conservation (total link traversals = Σ words × routed distance), and
/// re-running the same traffic under a different worker/shard draw
/// reproduces the digest and every counter.
#[test]
fn scaled_random_traffic_drains_and_sharding_is_invisible() {
    forall(
        "scaled_random_traffic_drains_and_sharding_is_invisible",
        12,
        |rng| {
            let topo = random_scaled_topology(rng);
            let n = topo.len();
            let mut cfg = fuzz_cfg(rng);
            cfg.jobs = rng.range_usize(1, 5);
            cfg.shards = rng.range_usize(0, 24);
            let flows: Vec<Flow> = (0..rng.range_usize(n / 8, n / 2 + 2).min(96))
                .map(|_| Flow {
                    src: rng.range_usize(0, n),
                    dst: rng.range_usize(0, n),
                    bytes: rng.range_u64(0, 48 * 8),
                })
                .collect();
            let expected_words: u64 = flows
                .iter()
                .filter(|f| f.src != f.dst)
                .map(|f| f.bytes.div_ceil(8))
                .sum();
            let expected_hops: u64 = flows
                .iter()
                .filter(|f| f.src != f.dst)
                .map(|f| f.bytes.div_ceil(8) * topo.distance(f.src, f.dst))
                .sum();
            let a = run_flows(&topo, &flows, &cfg)
                .unwrap_or_else(|e| panic!("engine failed on {:?} ({n} nodes): {e}", topo.dims()));
            assert_eq!(a.words, expected_words, "word conservation at {n} nodes");
            assert_eq!(
                a.flit_hops, expected_hops,
                "flit-hop conservation at {n} nodes"
            );
            assert_eq!(a.dropped, 0, "no faults configured");
            cfg.jobs = rng.range_usize(1, 5);
            cfg.shards = rng.range_usize(0, 24);
            let b = run_flows(&topo, &flows, &cfg).expect("re-partitioned run");
            assert_eq!(b.digest, a.digest, "digest under re-partitioning");
            assert_eq!(b.cycles, a.cycles);
            assert_eq!(b.flit_hops, a.flit_hops);
            assert_eq!(b.peak_queue_depth, a.peak_queue_depth);
        },
    );
}

/// The canonical congested pattern at a canonical size: the XOR all-to-all
/// on a 16-node torus drains with conserved flit-hops — the total link
/// traversals equal the sum over flows of words × routed distance.
#[test]
fn xor_all_to_all_conserves_flit_hops() {
    let topo = Topology::torus(&[4, 4]);
    let rounds = traffic::aapc_xor_schedule(topo.len(), 16 * 8);
    let mut rng = Rng::new(11);
    let cfg = fuzz_cfg(&mut rng);
    let out = run_schedule(&topo, &rounds, &cfg).expect("schedule runs");
    let expected_hops: u64 = rounds
        .iter()
        .flatten()
        .map(|f| f.bytes.div_ceil(8) * topo.distance(f.src, f.dst))
        .sum();
    let total_hops: u64 = out.rounds.iter().map(|r| r.flit_hops).sum();
    assert_eq!(total_hops, expected_hops, "flit-hop conservation");
}

/// The persistent worker pool carries shard state — pending arrivals,
/// in-flight mail, credits — from window to window without re-spawning.
/// A single run of well over a thousand windows must produce the same
/// event stream, digest and counters at every worker count, shard count
/// and scheduler as the one-shard serial run.
#[test]
fn long_runs_are_identical_across_jobs_shards_and_schedulers() {
    let topo = Topology::torus(&[4, 4]);
    // A shift pattern plus a hotspot on node 0: the hotspot's ejection
    // port keeps the run going long after the shift traffic has drained.
    let mut flows: Vec<Flow> = (0..16)
        .map(|i| Flow {
            src: i,
            dst: (i + 5) % 16,
            bytes: 256 * 8,
        })
        .collect();
    flows.extend((1..16).map(|i| Flow {
        src: i,
        dst: 0,
        bytes: 160 * 8,
    }));
    let link = LinkParams {
        bytes_per_cycle: 8.0,
        packet_words: 16,
        header_bytes: 8,
        adp_extra_bytes: 8,
        latency_cycles: 2,
        congestion: 1.0,
    };
    let run = |jobs: usize, shards: usize, reference: bool| {
        let mut cfg = EngineConfig::new(link, NodeParams::default());
        cfg.vc_slots = 4;
        cfg.jobs = jobs;
        cfg.shards = shards;
        cfg.reference_scheduler = reference;
        cfg.record_events = true;
        run_flows(&topo, &flows, &cfg).expect("long run drains")
    };
    let base = run(1, 1, false);
    assert!(base.windows > 1_000, "only {} windows", base.windows);
    for reference in [false, true] {
        for jobs in [1, 2, 3, 8] {
            for shards in [0, 1, 5] {
                let out = run(jobs, shards, reference);
                let at = format!("jobs={jobs} shards={shards} reference={reference}");
                assert_eq!(out.events, base.events, "{at}");
                assert_eq!(out.digest, base.digest, "{at}");
                assert_eq!(out.cycles, base.cycles, "{at}");
                assert_eq!(out.windows, base.windows, "{at}");
                assert_eq!(out.flit_hops, base.flit_hops, "{at}");
                assert_eq!(out.peak_queue_depth, base.peak_queue_depth, "{at}");
            }
        }
    }
}

/// The per-word latency ledger under stress: a drop-heavy retry storm,
/// flow latency and sampling on, and a backoff cap near `u64::MAX`. The
/// critical-path breakdown must still telescope class by class, agree with
/// the latency histograms, and come out identical at every jobs × shards
/// under both schedulers (debug builds would panic on a wrapped add).
#[test]
fn latency_attribution_survives_retry_storms_and_extreme_backoff_caps() {
    let topo = Topology::torus(&[4, 4]);
    let t = adversary::generate(
        &topo,
        &AdversaryConfig {
            kind: AdversaryKind::RetryStorm,
            base_bytes: 64,
            ..AdversaryConfig::default()
        },
    );
    let link = LinkParams {
        bytes_per_cycle: 8.0,
        packet_words: 16,
        header_bytes: 8,
        adp_extra_bytes: 8,
        latency_cycles: 4,
        congestion: 1.0,
    };
    let run = |jobs: usize, shards: usize, reference: bool| {
        let mut cfg = EngineConfig::new(link, NodeParams::default());
        cfg.jobs = jobs;
        cfg.shards = shards;
        cfg.reference_scheduler = reference;
        cfg.flow_classes = t.classes.clone();
        cfg.record_latency = true;
        cfg.sample_every = 16;
        cfg.fault = FaultPlan::new(FaultConfig {
            seed: 21,
            rate: 0.4,
            ..FaultConfig::default()
        });
        cfg.retry = RetryPolicy {
            max_retries: 4,
            backoff_base_cycles: 4,
            backoff_factor: 3,
            max_backoff_cycles: u64::MAX - 1,
        };
        run_flows(&topo, &t.flows, &cfg).expect("the storm completes")
    };
    let base = run(1, 1, false);
    assert!(base.retried > 0, "a 40% fault rate must retry words");
    assert_eq!(base.dropped, base.retried + base.abandoned);
    let tel = base.telemetry.as_ref().expect("sampling was on");
    assert_eq!(tel.breakdown.len(), base.flow_latency.len());
    for (b, h) in tel.breakdown.iter().zip(&base.flow_latency) {
        assert_eq!(b.count, h.count);
        assert_eq!(b.total, h.sum);
        assert_eq!(b.inject + b.queue + b.wire + b.backoff, b.total);
    }
    assert!(
        tel.breakdown.iter().any(|b| b.backoff > 0),
        "retries must show up as backoff"
    );
    for reference in [false, true] {
        for jobs in [1, 4] {
            for shards in [1, 0] {
                let out = run(jobs, shards, reference);
                let at = format!("jobs={jobs} shards={shards} reference={reference}");
                assert_eq!(out.digest, base.digest, "{at}");
                assert_eq!(out.flow_latency, base.flow_latency, "{at}");
                assert_eq!(out.telemetry, base.telemetry, "{at}");
                assert_eq!(out.degraded, base.degraded, "{at}");
            }
        }
    }
}
