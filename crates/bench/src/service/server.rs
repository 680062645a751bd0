//! The TCP server: accept loop, per-connection handlers, and a permit
//! gate bounding concurrent dispatches.
//!
//! Concurrency discipline: every accepted connection gets a handler
//! thread (connections are cheap — they mostly block on reads), but a
//! dispatch only runs while holding one of `workers` permits from the
//! [`Gate`], so at most `workers` simulations are in flight however many
//! clients are connected. Inside a dispatch the usual
//! [`memcomm_util::par`] fan-out applies, with the service's cache and
//! metrics handles propagated into the workers.
//!
//! Robustness contract (pinned by the protocol tests):
//!
//! * a connection closing between frames, or mid-frame, is a clean drop —
//!   no panic, no reply, the pool keeps serving other connections;
//! * an oversized length prefix gets a typed `protocol` error reply and
//!   the connection is closed (the stream position is unknowable after a
//!   refused frame);
//! * garbage payload bytes get a typed error reply and the connection
//!   stays usable;
//! * a `shutdown` request is answered (`{"kind": "bye"}`) before the
//!   flag flips, then every handler winds down at its next read poll.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use memcomm_machines::memo::MemoConfig;
use memcomm_util::frame::{self, FrameError};

use super::{proto, serve_bytes, ServiceState};

/// How often a blocked read wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` = loopback, OS-assigned port).
    pub addr: String,
    /// Concurrent-dispatch budget.
    pub workers: usize,
    /// Measurement-cache sizing.
    pub cache: MemoConfig,
    /// Largest request payload accepted.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            cache: MemoConfig::default(),
            max_frame: frame::DEFAULT_MAX_FRAME,
        }
    }
}

/// A counting semaphore over [`Mutex`] + [`Condvar`] — the dispatch gate.
/// Permits come back through [`Permit`]'s `Drop`, so a dispatch that
/// unwinds still returns its permit.
#[derive(Debug)]
struct Gate {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(permits: usize) -> Gate {
        Gate {
            permits: Mutex::new(permits.max(1)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut permits = self.permits.lock().expect("gate poisoned");
        while *permits == 0 {
            permits = self.freed.wait(permits).expect("gate poisoned");
        }
        *permits -= 1;
        Permit { gate: self }
    }
}

/// One held dispatch permit; dropping it (or unwinding past it) releases
/// it.
#[derive(Debug)]
struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.gate.permits.lock().expect("gate poisoned") += 1;
        self.gate.freed.notify_one();
    }
}

#[derive(Debug)]
struct Shared {
    state: ServiceState,
    gate: Gate,
    shutdown: AtomicBool,
    done: Mutex<bool>,
    finished: Condvar,
    max_frame: usize,
}

/// A running simulation server. Dropping it force-stops the accept loop
/// and joins every handler.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: ServiceState::new(config.cache, config.workers),
            gate: Gate::new(config.workers),
            shutdown: AtomicBool::new(false),
            done: Mutex::new(false),
            finished: Condvar::new(),
            max_frame: config.max_frame,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Server {
            local_addr,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service state behind this server (tests inspect cache counters
    /// through it).
    pub fn state(&self) -> &ServiceState {
        &self.shared.state
    }

    /// Blocks until a `shutdown` request (or [`Server::stop`]) flips the
    /// flag.
    pub fn wait(&self) {
        let mut done = self.shared.done.lock().expect("server poisoned");
        while !*done {
            done = self.shared.finished.wait(done).expect("server poisoned");
        }
    }

    /// Initiates shutdown and joins the accept loop (and through it every
    /// handler). Idempotent.
    pub fn stop(&mut self) {
        signal_shutdown(&self.shared);
        // Poke the (blocking) accept call so the loop observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn signal_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    *shared.done.lock().expect("server poisoned") = true;
    shared.finished.notify_all();
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let conn_shared = Arc::clone(shared);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &conn_shared);
                }));
            }
            Err(_) => break,
        }
        // Reap finished handlers so a long-lived server does not
        // accumulate one parked join handle per past connection.
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// How one read attempt ended.
enum ReadOutcome {
    /// A whole frame payload.
    Frame(Vec<u8>),
    /// Clean close between frames.
    Closed,
    /// The shutdown flag flipped while idle.
    Stopping,
    /// The prefix announced more than the cap.
    Oversized(FrameError),
    /// Mid-frame EOF or a transport error — drop without replying.
    Broken,
}

/// Reads until `buf` is full, polling the shutdown flag across read
/// timeouts. Partial fills are kept across polls, so a frame arriving in
/// dribbles is reassembled, never resynchronized mid-stream. Returns the
/// filled byte count (short only on EOF), or `None` when the shutdown
/// flag flipped before any byte of `buf` arrived.
fn read_full_poll(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
) -> io::Result<Option<usize>> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) && filled == 0 {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(filled))
}

fn read_request(stream: &mut TcpStream, shared: &Shared) -> ReadOutcome {
    let mut header = [0u8; frame::HEADER_LEN];
    let got = match read_full_poll(stream, &mut header, shared) {
        Ok(Some(got)) => got,
        Ok(None) => return ReadOutcome::Stopping,
        Err(_) => return ReadOutcome::Broken,
    };
    match got {
        0 => return ReadOutcome::Closed,
        n if n < frame::HEADER_LEN => return ReadOutcome::Broken,
        _ => {}
    }
    let len = match frame::decode_len(header, shared.max_frame) {
        Ok(len) => len,
        Err(e) => return ReadOutcome::Oversized(e),
    };
    let mut payload = vec![0u8; len];
    match read_full_poll(stream, &mut payload, shared) {
        Ok(Some(got)) if got == len => ReadOutcome::Frame(payload),
        // Shutdown raced the payload, or the peer vanished mid-frame:
        // either way the request never completed — drop it.
        _ => ReadOutcome::Broken,
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // Replies are small frames on a request/response stream; without
    // NODELAY, Nagle would hold them against the peer's delayed ACKs.
    let _ = stream.set_nodelay(true);
    loop {
        match read_request(&mut stream, shared) {
            ReadOutcome::Closed | ReadOutcome::Stopping | ReadOutcome::Broken => break,
            ReadOutcome::Oversized(e) => {
                // Typed refusal, then close: after a refused frame the
                // stream position is unknowable.
                let reply = proto::error_response(&proto::protocol(e.to_string()))
                    .render()
                    .into_bytes();
                let _obs_guard = shared.state.obs.install();
                shared.state.obs.count("service.requests.total", 1);
                shared.state.obs.count("service.errors", 1);
                let _ = frame::write_frame(&mut stream, &reply);
                break;
            }
            ReadOutcome::Frame(payload) => {
                let permit = shared.gate.acquire();
                let start = Instant::now();
                let served = serve_bytes(&payload, &shared.state);
                let micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                drop(permit);
                record_latency(shared, served.class, micros);
                if frame::write_frame(&mut stream, &served.reply).is_err() {
                    break;
                }
                if served.shutdown {
                    signal_shutdown(shared);
                    break;
                }
            }
        }
    }
}

/// Records server-side dispatch latency under the request class the
/// dispatch parsed (`error` for unparseable payloads).
fn record_latency(shared: &Shared, class: &str, micros: u64) {
    let _obs_guard = shared.state.obs.install();
    shared
        .state
        .obs
        .observe(&format!("service.latency_us.{class}"), micros);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_bounds_and_releases() {
        let gate = Gate::new(2);
        let a = gate.acquire();
        let b = gate.acquire();
        assert_eq!(*gate.permits.lock().unwrap(), 0, "both permits out");
        // A third acquire would block; dropping one and re-acquiring proves
        // the permit count round-trips.
        drop(a);
        let c = gate.acquire();
        drop((b, c));
        assert_eq!(*gate.permits.lock().unwrap(), 2);
    }

    #[test]
    fn a_panic_while_holding_a_permit_releases_it() {
        let workers = 3;
        let gate = Gate::new(workers);
        std::thread::scope(|s| {
            let crashed = s
                .spawn(|| {
                    let _permit = gate.acquire();
                    panic!("dispatch blew up");
                })
                .join();
            assert!(crashed.is_err(), "the thread did panic");
        });
        // Every permit is still there (checked first, so a leak fails
        // here instead of blocking below): all of them can be held at once.
        assert_eq!(*gate.permits.lock().unwrap(), workers);
        let held: Vec<_> = (0..workers).map(|_| gate.acquire()).collect();
        assert_eq!(held.len(), workers);
        assert_eq!(*gate.permits.lock().unwrap(), 0);
    }

    #[test]
    fn server_starts_stops_and_reports_its_addr() {
        let mut server = Server::start(ServerConfig::default()).expect("bind loopback");
        assert_ne!(server.addr().port(), 0, "OS assigned a real port");
        server.stop();
        server.stop(); // idempotent
        server.wait(); // already done — returns immediately
    }
}
