//! Order-preserving parallel map over scoped threads, a persistent scoped
//! worker pool, and a process-wide default worker count.
//!
//! The sweep engine fans independent simulation points out across cores
//! with [`par_map`]. Results come back in input order regardless of worker
//! scheduling, so a parallel sweep is bit-identical to the serial one —
//! the property the equivalence tests assert.
//!
//! The event engine instead runs thousands of short phases (one per
//! conservative window) over the same shards, where spawning threads per
//! phase would cost more than the phase itself. [`with_pool`] spawns its
//! helpers once and hands each phase over through a phase counter: the
//! waiting side spins briefly, then parks. Every worker runs the same block
//! of items each phase, so per-item state stays in one core's cache.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(1);

/// A context captured on the calling thread for re-installation inside
/// every [`par_map`] worker — the hook higher layers (the observability
/// crate, the measurement memo cache) use to make thread-local run state
/// survive the fan-out without threading handles through every call
/// signature.
pub trait CrossThread: Send + Sync {
    /// Installs the captured context on the current worker thread; the
    /// returned guard uninstalls it when dropped at worker exit.
    fn install(&self) -> Box<dyn std::any::Any>;
}

/// Signature of a capture hook: called on the *calling* thread once per
/// parallel [`par_map`], returning `None` when there is nothing to carry
/// (the common case — workers then start with pristine thread state).
pub type CaptureFn = fn() -> Option<Box<dyn CrossThread>>;

static PROPAGATORS: OnceLock<Mutex<Vec<CaptureFn>>> = OnceLock::new();

fn propagators() -> &'static Mutex<Vec<CaptureFn>> {
    PROPAGATORS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a process-wide context propagator. Several independent layers
/// may each register one hook (observability handles, the memo cache);
/// every registered hook is consulted at each fan-out and every captured
/// context is installed in every worker. Registering the same function
/// again is a no-op, so each layer can guard its registration with a
/// simple `Once`.
pub fn set_propagator(capture: CaptureFn) {
    let mut hooks = propagators().lock().expect("propagator registry poisoned");
    if !hooks.iter().any(|&h| std::ptr::fn_addr_eq(h, capture)) {
        hooks.push(capture);
    }
}

/// Captures every registered propagator's context on the calling thread.
fn capture_contexts() -> Vec<Box<dyn CrossThread>> {
    let hooks = propagators().lock().expect("propagator registry poisoned");
    hooks.iter().filter_map(|capture| capture()).collect()
}

/// Sets the process-wide default worker count used by [`par_map_auto`].
/// `0` or `1` mean serial execution.
pub fn set_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// The current process-wide default worker count.
pub fn jobs() -> usize {
    DEFAULT_JOBS.load(Ordering::Relaxed)
}

/// A reasonable worker count for this host: its available parallelism,
/// read once per process.
pub fn available_jobs() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` with up to `jobs` worker threads, returning the
/// results in input order. With `jobs <= 1` (or one item) this runs inline
/// on the calling thread, so the serial path involves no threading at all.
///
/// # Panics
///
/// Propagates the first worker panic.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let carried = capture_contexts();
    let carried = &carried;
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let _contexts: Vec<_> = carried.iter().map(|c| c.as_ref().install()).collect();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(part) => part,
                // Re-raise the worker's own payload so callers catching the
                // panic see the original message, not a generic wrapper.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

/// [`par_map`] with the process-wide default worker count.
pub fn par_map_auto<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map(jobs(), items, f)
}

/// How long a pool thread waiting for its next phase (or the caller
/// waiting for the helpers to finish one) spins before it parks. A handoff
/// within this bound costs a few cache-line transfers; a park and the
/// matching unpark cost two futex calls and a reschedule, tens of
/// microseconds on a virtualised host — more than a typical engine
/// barrier, which this bound covers.
const SPIN: Duration = Duration::from_micros(20);

/// Waits until `ready()` holds: spins for up to [`SPIN`], then parks. The
/// thread that makes `ready()` true unparks the waiter afterwards; a park
/// token left by an earlier unpark only costs one extra check.
fn wait_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        if start.elapsed() < SPIN {
            for _ in 0..32 {
                std::hint::spin_loop();
            }
        } else {
            std::thread::park();
        }
    }
}

/// State the caller shares with the helpers of one [`with_pool`].
struct Shared<'a, P, R> {
    task: &'a (dyn Fn(P, usize) -> R + Sync),
    items: usize,
    /// Workers: the caller plus the helpers.
    width: usize,
    /// Phase counter: the caller bumps it (`Release`) after publishing the
    /// phase's input and resetting `busy`; a helper that sees it change
    /// (`Acquire`) runs its share of the phase.
    epoch: AtomicU64,
    /// Set before the final bump: the helpers exit instead of working.
    stop: AtomicBool,
    /// The current phase's input.
    input: Mutex<Option<P>>,
    /// Helpers still working on the current phase. The last one to finish
    /// (`AcqRel`, so its results are visible) unparks the caller.
    busy: AtomicUsize,
    /// Result of every item of the current phase, by index.
    slots: Vec<Mutex<Option<R>>>,
    /// First panic payload of the current phase.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    caller: Thread,
}

impl<P: Copy, R> Shared<'_, P, R> {
    /// Runs worker `w`'s share of a phase: the same contiguous block of
    /// items every phase, so an item's state stays in one core's cache
    /// across phases. A panic ends the share; its payload is kept for the
    /// caller.
    fn share(&self, input: P, w: usize) {
        let block = w * self.items / self.width..(w + 1) * self.items / self.width;
        let run = || {
            for i in block {
                let r = (self.task)(input, i);
                *self.slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            }
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
            self.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    }

    /// Helper `w`'s life: wait for a phase, run its share, report; until
    /// the caller stops the pool.
    fn helper(&self, w: usize) {
        let mut seen = 0;
        loop {
            wait_until(|| self.epoch.load(Ordering::Acquire) != seen);
            seen = self.epoch.load(Ordering::Acquire);
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let input = self
                .input
                .lock()
                .expect("pool input lock poisoned")
                .expect("a phase publishes its input before it starts");
            self.share(input, w);
            if self.busy.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.caller.unpark();
            }
        }
    }
}

/// A persistent set of worker threads that runs one task over the same
/// `items` indices, phase after phase. Built by [`with_pool`]; the caller
/// thread is itself one of the workers.
pub struct Pool<'a, P, R> {
    task: &'a (dyn Fn(P, usize) -> R + Sync),
    items: usize,
    /// `None` when the pool is the calling thread alone.
    shared: Option<&'a Shared<'a, P, R>>,
    helpers: Vec<Thread>,
}

impl<P: Copy, R> Pool<'_, P, R> {
    /// Helper threads besides the caller (0 for a serial pool).
    pub fn helpers(&self) -> usize {
        self.helpers.len()
    }

    /// Runs one phase: `task(input, i)` for every item `i`, spread over the
    /// caller and the helpers, returning the results in item order. Returns
    /// only after every helper has finished the phase.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of the phase with its original payload.
    pub fn run(&mut self, input: P) -> Vec<R> {
        let Some(shared) = self.shared else {
            return (0..self.items).map(|i| (self.task)(input, i)).collect();
        };
        *shared.input.lock().expect("pool input lock poisoned") = Some(input);
        // Published to the helpers by the `Release` bump of `epoch`.
        shared.busy.store(self.helpers.len(), Ordering::Relaxed);
        shared.epoch.fetch_add(1, Ordering::Release);
        for helper in &self.helpers {
            helper.unpark();
        }
        shared.share(input, 0);
        wait_until(|| shared.busy.load(Ordering::Acquire) == 0);
        let panicked = shared
            .panic
            .lock()
            .expect("pool panic slot poisoned")
            .take();
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        shared
            .slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("pool result slot poisoned")
                    .take()
                    .expect("every item ran exactly once")
            })
            .collect()
    }
}

impl<P, R> Drop for Pool<'_, P, R> {
    /// Releases the helpers, which are all idle between phases: they see
    /// the final bump, read `stop`, and return to the joining scope.
    fn drop(&mut self) {
        if let Some(shared) = self.shared {
            shared.stop.store(true, Ordering::Release);
            shared.epoch.fetch_add(1, Ordering::Release);
            for helper in &self.helpers {
                helper.unpark();
            }
        }
    }
}

/// Runs `body` with a [`Pool`] of `jobs` workers — the calling thread plus
/// `jobs - 1` helpers, at most one worker per item — that `body` can run
/// any number of phases of `task` on. Items are split into one contiguous
/// block per worker, the same every phase, so they should cost about the
/// same. The helpers are spawned once, carry the registered contexts
/// ([`set_propagator`]) captured once, and are joined before this returns.
/// With `jobs <= 1` (or one item) no thread is spawned and every phase runs
/// inline.
///
/// # Panics
///
/// Propagates a panic of `body`, including a task panic that
/// [`Pool::run`] re-raised, after every helper has been joined.
pub fn with_pool<P, R, T>(
    jobs: usize,
    items: usize,
    task: &(dyn Fn(P, usize) -> R + Sync),
    body: impl FnOnce(&mut Pool<'_, P, R>) -> T,
) -> T
where
    P: Copy + Send,
    R: Send,
{
    let width = jobs.clamp(1, items.max(1));
    if width <= 1 {
        return body(&mut Pool {
            task,
            items,
            shared: None,
            helpers: Vec::new(),
        });
    }
    let shared = Shared {
        task,
        items,
        width,
        epoch: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        input: Mutex::new(None),
        busy: AtomicUsize::new(0),
        slots: (0..items).map(|_| Mutex::new(None)).collect(),
        panic: Mutex::new(None),
        caller: std::thread::current(),
    };
    let carried = capture_contexts();
    std::thread::scope(|scope| {
        let helpers = (1..width)
            .map(|w| {
                let (shared, carried) = (&shared, &carried);
                scope
                    .spawn(move || {
                        let _contexts: Vec<_> =
                            carried.iter().map(|c| c.as_ref().install()).collect();
                        shared.helper(w);
                    })
                    .thread()
                    .clone()
            })
            .collect();
        let mut pool = Pool {
            task,
            items,
            shared: Some(&shared),
            helpers,
        };
        body(&mut pool)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(1, &items, |&x| x * x);
        let parallel = par_map(8, &items, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[100], 10_000);
    }

    #[test]
    fn handles_edge_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |&x| x + 1), vec![8]);
        assert_eq!(par_map(16, &[1u32, 2], |&x| x), vec![1, 2]);
    }

    #[test]
    fn default_jobs_round_trip() {
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert_eq!(jobs(), 1, "zero clamps to serial");
        set_jobs(1);
    }

    fn square_plus(phase: u64, i: usize) -> u64 {
        phase * 31 + (i * i) as u64
    }

    #[test]
    fn pool_matches_the_serial_map_over_many_phases() {
        let items = 7;
        let serial = |phase| {
            (0..items)
                .map(|i| square_plus(phase, i))
                .collect::<Vec<_>>()
        };
        with_pool(4, items, &square_plus, |pool| {
            assert_eq!(pool.helpers(), 3);
            for phase in 0..10_000 {
                assert_eq!(pool.run(phase), serial(phase), "phase {phase}");
            }
        });
    }

    #[test]
    fn pool_wider_than_its_items_clamps() {
        with_pool(16, 3, &square_plus, |pool| {
            assert_eq!(pool.helpers(), 2, "one worker per item at most");
            for phase in 0..100 {
                assert_eq!(
                    pool.run(phase),
                    (0..3).map(|i| square_plus(phase, i)).collect::<Vec<_>>()
                );
            }
        });
        with_pool(8, 0, &square_plus, |pool| {
            assert_eq!(pool.helpers(), 0);
            assert!(pool.run(5).is_empty());
        });
    }

    #[test]
    fn serial_pool_spawns_no_thread() {
        let caller = std::thread::current().id();
        let task = |phase: u64, i: usize| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "ran off the calling thread"
            );
            square_plus(phase, i)
        };
        with_pool(1, 5, &task, |pool| {
            assert_eq!(pool.helpers(), 0);
            for phase in 0..10 {
                assert_eq!(pool.run(phase).len(), 5);
            }
        });
    }

    /// Runs phases 0..5 on a 4-wide pool over 4 items; in phase 3 a barrier
    /// makes every worker hold exactly one item, then the workers `panics`
    /// picks panic. Returns the payload the pool re-raised.
    fn pool_panic(panics: fn(bool) -> bool) -> String {
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(4);
        let task = |phase: u64, i: usize| {
            if phase == 3 {
                barrier.wait();
                if panics(std::thread::current().id() == caller) {
                    panic!("boom in phase {phase}");
                }
            }
            i
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_pool(4, 4, &task, |pool| {
                for phase in 0..5 {
                    assert_eq!(pool.run(phase), vec![0, 1, 2, 3]);
                }
            })
        }));
        // Reaching this line means every helper was joined.
        let payload = caught.expect_err("phase 3 must panic");
        payload
            .downcast_ref::<String>()
            .expect("the original String payload")
            .clone()
    }

    #[test]
    fn pool_reraises_a_helper_panic_and_joins() {
        assert_eq!(pool_panic(|on_caller| !on_caller), "boom in phase 3");
    }

    #[test]
    fn pool_reraises_a_caller_panic_and_joins() {
        assert_eq!(pool_panic(|on_caller| on_caller), "boom in phase 3");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(4, &items, |&x| {
            assert!(x != 33, "boom");
            x
        });
    }
}
