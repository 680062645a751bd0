//! Simulation-as-a-service: the model stack behind a long-lived TCP
//! endpoint.
//!
//! The batch `repro` CLI re-prices everything from scratch on every
//! invocation; a serving process keeps the calibrated machines, the
//! discrete-event engine, and — crucially — a warm measurement cache
//! resident, so repeated queries cost a cache lookup instead of a
//! simulation. The pieces:
//!
//! * [`proto`] — the length-prefixed deterministic-JSON request protocol
//!   and its strict parser;
//! * [`server`] — the TCP server: an accept loop, per-connection handler
//!   threads, and a permit gate bounding concurrent dispatches to the
//!   configured worker budget;
//! * [`client`] — the blocking client used by tests, the load generator,
//!   and anything else speaking the protocol;
//! * [`loadgen`] — seeded request-mix replay across a concurrent client
//!   fleet, with a `--check` mode diffing every served response against
//!   freshly computed batch bytes.
//!
//! ## Determinism
//!
//! Every response is a pure function of its request: simulation state
//! lives per-dispatch (each request installs the shared cache + metrics
//! handles, runs, and uninstalls), cached values are pure functions of
//! their keys, and reports render byte-deterministically. So a served
//! response is byte-identical to the batch CLI's output for the same
//! parameters — warm cache, cold cache, any worker count, any client
//! interleaving. The `service_vs_batch` tier and `loadgen --check` pin
//! exactly this.

pub mod client;
pub mod loadgen;
pub mod proto;
pub mod server;

use std::collections::BTreeSet;

use memcomm_machines::memo::{self, MemoConfig, MemoHandle};
use memcomm_obs::Obs;
use memcomm_util::json::Json;

pub use proto::Request;

use crate::runner::{self, SweepOptions};

/// Everything a dispatch needs: the shared measurement cache, the
/// server-lifetime metrics registry, and the worker budget (echoed in
/// `stats` responses).
#[derive(Debug, Clone)]
pub struct ServiceState {
    /// The shared measurement cache every request installs.
    pub cache: MemoHandle,
    /// Server-lifetime metrics (request counters, latency histograms).
    pub obs: Obs,
    /// Concurrent-dispatch budget.
    pub workers: usize,
}

impl ServiceState {
    /// Builds a state with a fresh cache and registry.
    pub fn new(cache: MemoConfig, workers: usize) -> ServiceState {
        ServiceState {
            cache: memo::MemoCache::handle(cache),
            obs: Obs::new(false),
            workers: workers.max(1),
        }
    }
}

/// What a dispatch produced: a reply to frame back, and whether the
/// server should shut down after sending it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The response document.
    pub reply: Json,
    /// `true` only for an accepted `shutdown` request.
    pub shutdown: bool,
}

fn reply(reply: Json) -> Outcome {
    Outcome {
        reply,
        shutdown: false,
    }
}

/// The sweep options an `engine`/`collectives` request desugars to: a
/// sentinel section set that matches no sweep section, so the report
/// carries only the opt-in rows.
fn only(section_less: SweepOptions) -> SweepOptions {
    let mut sections = BTreeSet::new();
    sections.insert("service-none".to_string());
    SweepOptions {
        sections,
        jobs: 1,
        ..section_less
    }
}

fn run_report(opts: &SweepOptions) -> Json {
    let (report, _metrics) = runner::run_sweep(opts);
    report.to_json()
}

/// Executes one parsed request against the service state and returns the
/// response document. Installs the shared cache and metrics handles for
/// the duration, so nested sweeps adopt them (and `par_map` fan-outs
/// propagate them into workers). A panic inside the dispatch becomes a
/// typed `internal` error reply instead of tearing down the connection.
pub fn dispatch(req: &Request, state: &ServiceState) -> Outcome {
    catch_internal(state, || dispatch_request(req, state))
}

/// Runs `f`, turning a panic into an `internal` error reply (counted as an
/// error like any other). The panic message still reaches stderr through
/// the panic hook.
fn catch_internal(state: &ServiceState, f: impl FnOnce() -> Outcome) -> Outcome {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let detail = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("dispatch panicked");
        state.obs.count("service.errors", 1);
        reply(proto::internal_error_response(detail))
    })
}

fn dispatch_request(req: &Request, state: &ServiceState) -> Outcome {
    let _obs_guard = state.obs.install();
    let _memo_guard = memo::install(&state.cache);
    state.obs.count("service.requests.total", 1);
    state
        .obs
        .count(&format!("service.requests.{}", req.class()), 1);
    match req {
        Request::Ping => reply(Json::obj([("kind", Json::str("pong"))])),
        Request::Query {
            machine,
            transfer,
            words,
        } => {
            let m = match proto::parse_machine(machine) {
                Ok(m) => m,
                Err(e) => return error(state, &e),
            };
            match memcomm_machines::microbench::measure_basic(&m, *transfer, *words) {
                Ok(result) => {
                    let mbps = result.as_ref().map(|r| r.throughput(m.clock()).as_mbps());
                    reply(proto::query_response(
                        machine,
                        *transfer,
                        *words,
                        result.as_ref(),
                        mbps,
                    ))
                }
                Err(e) => error(state, &e),
            }
        }
        Request::Sweep(opts) => reply(Json::obj([
            ("kind", Json::str("sweep")),
            ("report", run_report(opts)),
        ])),
        Request::Engine(settings) => reply(Json::obj([
            ("kind", Json::str("engine")),
            (
                "report",
                run_report(&only(SweepOptions {
                    engine: Some(*settings),
                    ..SweepOptions::default()
                })),
            ),
        ])),
        Request::Collectives(settings) => reply(Json::obj([
            ("kind", Json::str("collectives")),
            (
                "report",
                run_report(&only(SweepOptions {
                    collectives: Some(settings.clone()),
                    ..SweepOptions::default()
                })),
            ),
        ])),
        Request::Adversary(opts) => match crate::adversary::run_scenario(opts) {
            Ok(scenario) => reply(Json::obj([
                ("kind", Json::str("adversary")),
                ("scenario", crate::adversary::scenario_json(opts, &scenario)),
            ])),
            Err(e) => error(state, &e),
        },
        Request::Stats => reply(stats_response(state)),
        Request::Metrics => reply(Json::obj([
            ("kind", Json::str("metrics")),
            ("body", Json::str(&metrics_exposition(state))),
        ])),
        Request::Shutdown => Outcome {
            reply: Json::obj([("kind", Json::str("bye"))]),
            shutdown: true,
        },
    }
}

fn error(state: &ServiceState, e: &memcomm_memsim::SimError) -> Outcome {
    state.obs.count("service.errors", 1);
    reply(proto::error_response(e))
}

/// What one served frame produced: the rendered reply, whether the server
/// should shut down after sending it, and the class of request the payload
/// parsed to.
#[derive(Debug)]
pub struct Served {
    /// The rendered response bytes.
    pub reply: Vec<u8>,
    /// `true` only for an accepted `shutdown` request.
    pub shutdown: bool,
    /// [`Request::class`] of the parsed request, or `"error"` for a
    /// payload that did not parse.
    pub class: &'static str,
}

/// Parses raw frame payload bytes once, dispatches, and renders the reply
/// — the full byte-in/byte-out path of the server. Malformed JSON and
/// malformed requests become error replies (the connection stays usable);
/// only transport-level failures close it.
pub fn serve_bytes(payload: &[u8], state: &ServiceState) -> Served {
    let (outcome, class) = match std::str::from_utf8(payload)
        .map_err(|e| proto::protocol(format!("request is not UTF-8: {e}")))
        .and_then(|text| {
            Json::parse(text).map_err(|e| proto::protocol(format!("request is not JSON: {e}")))
        })
        .and_then(|doc| Request::parse(&doc))
    {
        Ok(req) => (dispatch(&req, state), req.class()),
        Err(e) => {
            let _obs_guard = state.obs.install();
            state.obs.count("service.requests.total", 1);
            (error(state, &e), "error")
        }
    };
    Served {
        reply: outcome.reply.render().into_bytes(),
        shutdown: outcome.shutdown,
        class,
    }
}

/// [`serve_bytes`] without the class: the reply bytes and the shutdown
/// flag, as `loadgen --check` compares them.
pub fn dispatch_bytes(payload: &[u8], state: &ServiceState) -> (Vec<u8>, bool) {
    let served = serve_bytes(payload, state);
    (served.reply, served.shutdown)
}

/// The request classes `stats` enumerates (wire order).
const CLASSES: &[&str] = &[
    "ping",
    "query",
    "sweep",
    "engine",
    "collectives",
    "adversary",
    "stats",
    "metrics",
    "shutdown",
];

fn stats_response(state: &ServiceState) -> Json {
    let cache = state.cache.stats();
    let shards = state.cache.shard_stats();
    let mut requests: Vec<(&'static str, Json)> =
        vec![("total", state.obs.counter("service.requests.total").into())];
    for class in CLASSES {
        requests.push((
            class,
            state
                .obs
                .counter(&format!("service.requests.{class}"))
                .into(),
        ));
    }
    requests.push(("errors", state.obs.counter("service.errors").into()));
    Json::obj([
        ("kind", Json::str("stats")),
        ("workers", (state.workers as u64).into()),
        (
            "cache",
            Json::obj([
                ("hits", cache.hits.into()),
                ("misses", cache.misses.into()),
                ("evictions", cache.evictions.into()),
                ("entries", cache.entries.into()),
                ("hit_rate", cache.hit_rate().into()),
                (
                    "shards",
                    Json::arr(&shards, |s| {
                        Json::obj([
                            ("hits", s.hits.into()),
                            ("misses", s.misses.into()),
                            ("insertions", s.insertions.into()),
                            ("evictions", s.evictions.into()),
                            ("entries", s.entries.into()),
                        ])
                    }),
                ),
            ]),
        ),
        ("requests", Json::obj(requests)),
    ])
}

/// Renders the server's OpenMetrics exposition: the metrics registry
/// (request counters, per-class latency histograms) plus the cache's
/// totals and per-shard counters as `service_cache_*` families.
pub fn metrics_exposition(state: &ServiceState) -> String {
    let mut snapshot = state.obs.metrics_snapshot().unwrap_or_default();
    let cache = state.cache.stats();
    snapshot
        .counters
        .push(("service.cache.hits".to_string(), cache.hits));
    snapshot
        .counters
        .push(("service.cache.misses".to_string(), cache.misses));
    snapshot
        .counters
        .push(("service.cache.evictions".to_string(), cache.evictions));
    for (i, s) in state.cache.shard_stats().iter().enumerate() {
        snapshot
            .counters
            .push((format!("service.cache.shard{i}.hits"), s.hits));
        snapshot
            .counters
            .push((format!("service.cache.shard{i}.misses"), s.misses));
        snapshot
            .counters
            .push((format!("service.cache.shard{i}.evictions"), s.evictions));
    }
    snapshot
        .gauges
        .push(("service.cache.entries".to_string(), cache.entries));
    snapshot.counters.sort();
    snapshot.gauges.sort();
    memcomm_obs::openmetrics::render(&snapshot, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServiceState {
        ServiceState::new(MemoConfig::default(), 2)
    }

    #[test]
    fn a_panicking_dispatch_is_an_internal_error_reply() {
        let state = state();
        let out = catch_internal(&state, || panic!("engine bug"));
        assert_eq!(out.reply.get("kind").and_then(Json::as_str), Some("error"));
        assert_eq!(
            out.reply.get("code").and_then(Json::as_str),
            Some("internal")
        );
        assert_eq!(
            out.reply.get("error").and_then(Json::as_str),
            Some("internal error: engine bug")
        );
        assert!(!out.shutdown);
        assert_eq!(state.obs.counter("service.errors"), 1);
    }

    #[test]
    fn ping_pongs_and_counts() {
        let state = state();
        let out = dispatch(&Request::Ping, &state);
        assert_eq!(out.reply.get("kind").and_then(Json::as_str), Some("pong"));
        assert!(!out.shutdown);
        assert_eq!(state.obs.counter("service.requests.total"), 1);
        assert_eq!(state.obs.counter("service.requests.ping"), 1);
    }

    #[test]
    fn queries_warm_the_shared_cache() {
        let state = state();
        let req = Request::Query {
            machine: "t3d".to_string(),
            transfer: memcomm_model::BasicTransfer::parse("1C1").unwrap(),
            words: 1024,
        };
        let a = dispatch(&req, &state).reply.render();
        let before = state.cache.stats();
        let b = dispatch(&req, &state).reply.render();
        assert_eq!(a, b, "repeat queries are byte-identical");
        let delta = state.cache.stats().since(before);
        assert!(delta.hits >= 1, "the repeat must hit: {delta:?}");
    }

    #[test]
    fn garbage_bytes_become_protocol_errors() {
        let state = state();
        let (bytes, shutdown) = dispatch_bytes(b"{nope", &state);
        assert!(!shutdown);
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("error"));
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("protocol"));
        assert_eq!(state.obs.counter("service.errors"), 1);
    }

    #[test]
    fn served_frames_carry_the_class_they_parsed_to() {
        let state = state();
        assert_eq!(serve_bytes(b"{nope", &state).class, "error");
        assert_eq!(
            serve_bytes(br#"{"kind": "teleport"}"#, &state).class,
            "error"
        );
        let ping = serve_bytes(br#"{"kind": "ping"}"#, &state);
        assert_eq!(ping.class, "ping");
        assert_eq!(
            (ping.reply, ping.shutdown),
            dispatch_bytes(br#"{"kind": "ping"}"#, &state)
        );
    }

    #[test]
    fn shutdown_flags_the_outcome() {
        let out = dispatch(&Request::Shutdown, &state());
        assert!(out.shutdown);
        assert_eq!(out.reply.get("kind").and_then(Json::as_str), Some("bye"));
    }

    #[test]
    fn stats_and_metrics_expose_cache_counters() {
        let state = state();
        let req = Request::Query {
            machine: "t3d".to_string(),
            transfer: memcomm_model::BasicTransfer::parse("1C1").unwrap(),
            words: 512,
        };
        dispatch(&req, &state);
        dispatch(&req, &state);
        let stats = dispatch(&Request::Stats, &state).reply;
        let cache = stats.get("cache").expect("stats carry cache counters");
        assert!(cache.get("hits").and_then(Json::as_f64).unwrap() >= 1.0);
        let body = metrics_exposition(&state);
        memcomm_obs::openmetrics::validate(&body).expect("exposition validates");
        assert!(body.contains("service_cache_hits_total"));
        assert!(body.contains("service_cache_shard0_hits_total"));
    }
}
