//! The `serve` workload: an in-process `service::server::Server` with a
//! 128-entry memo cache and `workers` = half the cores, driven by N
//! closed-loop `service::client::Client` connections replaying a seeded
//! request stream.
//!
//! The stream: 80% `query` drawn Zipf(s=1) over 512 keys (2 machines ×
//! 8 transfers × 32 payload sizes from 256 to 8192 words), 15% 16-node
//! `adversary` storms (retry-storm or incast, 64 bytes base) and 5% tiny
//! one-section `sweep` requests. The program sees only the generated
//! request bytes.

use std::collections::HashMap;
use std::time::Instant;

use memcomm_bench::adversary::ScenarioOptions;
use memcomm_bench::runner::SweepOptions;
use memcomm_bench::service::client::Client;
use memcomm_bench::service::server::{Server, ServerConfig};
use memcomm_bench::service::{dispatch_bytes, Request, ServiceState};
use memcomm_machines::memo::MemoConfig;
use memcomm_model::BasicTransfer;
use memcomm_netsim::AdversaryKind;
use memcomm_util::json::Json;
use memcomm_util::rng::Rng;

use crate::report::Report;
use crate::stats::{median, quantile, secs, Timing};
use crate::trace::{Tracer, BENCH};

/// Entries of the server's bounded memo cache.
pub const CACHE_ENTRIES: usize = 128;
const MACHINES: &[&str] = &["t3d", "paragon"];
const TRANSFERS: &[&str] = &["1C1", "1C0", "1C64", "1F0", "0R1", "0D1", "Nd", "Nadp"];
const SIZES: u64 = 32;
const SIZE_STEP: u64 = 256;
/// Fixed seed of the rank → query-key permutation (the workload seed
/// drives only the draws, so every seed sees the same popularity shape).
const KEY_ORDER_SEED: u64 = 0x5EED_0512;

/// Every distinct request of the stream, rendered once.
pub struct Catalog {
    /// Wire payload of each distinct request.
    pub payloads: Vec<Vec<u8>>,
    /// Request class of each distinct request.
    pub classes: Vec<&'static str>,
    queries: usize,
    zipf_cdf: Vec<f64>,
}

fn query(machine: &str, transfer: &str, words: u64) -> Request {
    Request::Query {
        machine: machine.to_string(),
        transfer: BasicTransfer::parse(transfer).expect("the stream's transfers parse"),
        words,
    }
}

fn storm(kind: AdversaryKind) -> Request {
    let mut opts = ScenarioOptions::new(kind);
    opts.nodes = Some(16);
    opts.base_bytes = 64;
    opts.jobs = 1;
    Request::Adversary(opts)
}

fn tiny_sweep(section: &str) -> Request {
    Request::Sweep(SweepOptions {
        jobs: 1,
        micro_words: 512,
        exchange_words: 256,
        sections: [section.to_string()].into_iter().collect(),
        ..SweepOptions::default()
    })
}

impl Catalog {
    /// Builds the 512 query keys (in popularity-rank order), the two
    /// storms and the two tiny sweeps.
    pub fn new() -> Catalog {
        let mut requests = Vec::new();
        for machine in MACHINES {
            for transfer in TRANSFERS {
                for size in 1..=SIZES {
                    requests.push(query(machine, transfer, size * SIZE_STEP));
                }
            }
        }
        Rng::new(KEY_ORDER_SEED).shuffle(&mut requests);
        let queries = requests.len();
        requests.push(storm(AdversaryKind::RetryStorm));
        requests.push(storm(AdversaryKind::Incast));
        requests.push(tiny_sweep("calibration"));
        requests.push(tiny_sweep("table1"));
        let mut total = 0.0;
        let zipf_cdf = (1..=queries)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Catalog {
            payloads: requests
                .iter()
                .map(|r| r.to_json().render().into_bytes())
                .collect(),
            classes: requests.iter().map(Request::class).collect(),
            queries,
            zipf_cdf,
        }
    }

    /// Draws the index of the next request.
    fn draw(&self, rng: &mut Rng) -> usize {
        match rng.range_u64(0, 100) {
            0..80 => {
                let total = self.zipf_cdf[self.queries - 1];
                let x = rng.range_f64(0.0, total);
                self.zipf_cdf
                    .partition_point(|&c| c < x)
                    .min(self.queries - 1)
            }
            80..95 => self.queries + usize::from(rng.bool()),
            _ => self.queries + 2 + usize::from(rng.bool()),
        }
    }
}

/// One served request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Catalog index of the request.
    pub idx: usize,
    /// Request id (client in the high 32 bits, sequence in the low).
    pub id: u64,
    /// Send time, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Client-observed latency in microseconds.
    pub latency_us: f64,
    /// Which [`Session::drive`] call sent it.
    pub step: usize,
}

/// How long each client keeps sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Until this instant.
    Deadline(Instant),
    /// This many requests per client.
    Count(usize),
}

/// One closed-loop client: its connection, its share of the stream and
/// what it has seen so far.
struct ClientState {
    conn: Client,
    c: usize,
    rng: Rng,
    seq: u64,
    samples: Vec<Sample>,
    /// First response bytes per catalog index, with the requests sent.
    first: HashMap<usize, (Vec<u8>, u64)>,
    failed: u64,
    tracer: Tracer,
}

impl ClientState {
    /// Sends requests, each after the previous reply, until `until`.
    fn drive(&mut self, cat: &Catalog, until: Until, step: usize) {
        let root = self.tracer.open(BENCH, &format!("client {}", self.c), 0);
        for sent in 0.. {
            match until {
                Until::Deadline(d) if Instant::now() >= d => break,
                Until::Count(n) if sent >= n => break,
                _ => {}
            }
            let idx = cat.draw(&mut self.rng);
            let id = ((self.c as u64) << 32) | self.seq;
            self.seq += 1;
            let start_ns = self.tracer.clock_ns();
            let span = self.tracer.open("service", cat.classes[idx], id);
            let t = Instant::now();
            let served = self.conn.call_bytes(&cat.payloads[idx]);
            let latency_us = secs(t) * 1e6;
            self.tracer.close(span);
            self.samples.push(Sample {
                idx,
                id,
                start_ns,
                latency_us,
                step,
            });
            match served {
                Err(_) => self.failed += 1,
                Ok(bytes) => match self.first.get_mut(&idx) {
                    None => {
                        self.first.insert(idx, (bytes, 1));
                    }
                    Some((first, n)) => {
                        *n += 1;
                        if *first != bytes {
                            self.failed += 1;
                        }
                    }
                },
            }
        }
        self.tracer.close(root);
    }
}

/// What a serve pass measured.
pub struct Pass {
    /// Every request, in send order.
    pub samples: Vec<Sample>,
    /// Host time of each [`Session::drive`] call.
    pub steps: Vec<Timing>,
    /// The server's `stats` reply after the pass.
    pub stats: Json,
    /// Median round trip of `ping` on the idle server, in microseconds.
    pub ping_rtt_us: f64,
}

fn server_config(jobs: usize) -> ServerConfig {
    ServerConfig {
        workers: (jobs / 2).max(1),
        cache: MemoConfig {
            capacity: CACHE_ENTRIES,
            ..MemoConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Process CPU seconds from server start to the first `ping` reply
/// (stopping the server is not timed).
pub fn setup_once(jobs: usize) -> f64 {
    let (timing, (server, conn)) = Timing::of(|| {
        let server = Server::start(server_config(jobs)).expect("the bench server starts");
        let mut conn = Client::connect(server.addr()).expect("the client connects");
        conn.request(&Request::Ping)
            .expect("the server answers ping");
        (server, conn)
    });
    drop(conn);
    drop(server);
    timing.cpu
}

/// A running server with `jobs` connected clients.
pub struct Session<'a> {
    cat: &'a Catalog,
    server: Server,
    clients: Vec<ClientState>,
    steps: Vec<Timing>,
    ping_rtt_us: f64,
}

impl<'a> Session<'a> {
    /// Starts the server, times 200 idle `ping`s and connects `jobs`
    /// clients, each drawing from its own stream derived from `seed`.
    pub fn start(jobs: usize, seed: u64, cat: &'a Catalog, tr: &mut Tracer) -> Session<'a> {
        let server = tr
            .span("service", "Server::start", || {
                Server::start(server_config(jobs))
            })
            .expect("the bench server starts");
        let connect =
            || Client::connect(server.addr()).expect("the client connects to the bench server");
        let mut conn = connect();
        let rtts: Vec<f64> = tr.span("service", "ping x200", || {
            (0..200)
                .map(|_| {
                    let t = Instant::now();
                    conn.request(&Request::Ping)
                        .expect("the server answers ping");
                    secs(t) * 1e6
                })
                .collect()
        });
        let clients = (0..jobs)
            .map(|c| ClientState {
                conn: connect(),
                c,
                rng: Rng::new(
                    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1)),
                ),
                seq: 0,
                samples: Vec::new(),
                first: HashMap::new(),
                failed: 0,
                tracer: Tracer::new(tr.enabled(), tr.origin()),
            })
            .collect();
        Session {
            cat,
            server,
            clients,
            steps: Vec::new(),
            ping_rtt_us: median(&rtts),
        }
    }

    /// The catalog the clients draw from.
    pub fn catalog(&self) -> &'a Catalog {
        self.cat
    }

    /// Host seconds spent driving clients so far.
    pub fn spent(&self) -> f64 {
        self.steps.iter().map(|t| t.wall).sum()
    }

    /// [`Session::drive`] calls so far.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Runs every client, each on its own thread, until `until`. The
    /// clients' spans go under a `drive` span of `tr`.
    pub fn drive(&mut self, until: Until, tr: &mut Tracer) {
        let cat = self.cat;
        let step = self.steps.len();
        let span = tr.open(BENCH, "drive", 0);
        let (timing, ()) = Timing::of(|| {
            std::thread::scope(|s| {
                for client in &mut self.clients {
                    s.spawn(move || client.drive(cat, until, step));
                }
            })
        });
        self.steps.push(timing);
        for client in &mut self.clients {
            let fresh = Tracer::new(tr.enabled(), tr.origin());
            tr.absorb(std::mem::replace(&mut client.tracer, fresh));
        }
        tr.close(span);
    }

    /// Fetches the server's `stats`, stops it and checks every response.
    /// Failed ops (transport errors, error replies, responses differing
    /// from a local `dispatch_bytes` on a fresh state) go into `report`;
    /// the byte check runs outside the timed window, once per distinct
    /// request.
    pub fn finish(mut self, tr: &mut Tracer, report: &mut Report) -> Pass {
        let addr = self.server.addr();
        let stats = tr
            .span("service", "stats", || {
                Client::connect(addr)
                    .and_then(|mut c| c.request(&Request::Stats).map_err(std::io::Error::other))
            })
            .expect("the server answers stats");
        tr.span("service", "Server::stop", || self.server.stop());
        let fresh = ServiceState::new(MemoConfig::default(), 1);
        let mut expected: HashMap<usize, Option<Vec<u8>>> = HashMap::new();
        let mut samples = Vec::new();
        for mut client in self.clients.drain(..) {
            let mut failed = client.failed;
            for (idx, (bytes, n)) in &client.first {
                let want = expected.entry(*idx).or_insert_with(|| {
                    let (reply, _) = tr.span("service", "dispatch_bytes", || {
                        dispatch_bytes(&self.cat.payloads[*idx], &fresh)
                    });
                    (!reply.starts_with(b"{\n  \"kind\": \"error\"")).then_some(reply)
                });
                if want.as_ref() != Some(bytes) {
                    failed += n;
                }
            }
            report.attempted += client.samples.len() as u64;
            report.failed += failed;
            samples.append(&mut client.samples);
        }
        samples.sort_by_key(|s| s.start_ns);
        Pass {
            samples,
            steps: self.steps,
            stats,
            ping_rtt_us: self.ping_rtt_us,
        }
    }
}

/// Client-observed latencies of one request class, in microseconds.
fn latencies<'s>(
    samples: impl Iterator<Item = &'s Sample>,
    cat: &Catalog,
    class: &str,
) -> Vec<f64> {
    samples
        .filter(|s| cat.classes[s.idx] == class)
        .map(|s| s.latency_us)
        .collect()
}

/// The serve metrics, each the median over driving steps (about a second
/// each in untraced runs) of that step's figure, so a few seconds of host
/// contention move them less than a pooled figure would.
///
/// `serve_req_per_cpu_s`, the end-to-end one, is completed requests per
/// process CPU second (server and clients together): unlike the
/// client-observed figures it does not move with the share of CPU time
/// the hypervisor gives other guests. The client-observed throughput and
/// latency percentiles are reported as `service.*`. Prints the sample
/// counts to stderr.
pub fn metrics(pass: &Pass, cat: &Catalog, report: &mut Report) {
    let steps = pass.steps.len();
    let in_step = |i: usize| pass.samples.iter().filter(move |s| s.step == i);
    let rate = |clock: fn(&Timing) -> f64| {
        let rates: Vec<f64> = (0..steps)
            .map(|i| in_step(i).count() as f64 / clock(&pass.steps[i]))
            .collect();
        median(&rates)
    };
    report.metric("serve_req_per_cpu_s", rate(|t| t.cpu), "1/s");
    report.metric("service.rps", rate(|t| t.wall), "1/s");
    for (class, short) in [("query", "query"), ("adversary", "storm")] {
        let per_step: Vec<Vec<f64>> = (0..steps)
            .map(|i| latencies(in_step(i), cat, class))
            .collect();
        let count: usize = per_step.iter().map(Vec::len).sum();
        eprintln!("serve: {count} {class} samples over {steps} steps");
        for (q, name) in [(0.5, "p50"), (0.99, "p99")] {
            let by_step: Vec<f64> = per_step.iter().map(|l| quantile(l, q)).collect();
            report.metric(format!("service.{short}_{name}_us"), median(&by_step), "us");
        }
    }
}
