//! Memoization of simulated measurements behind an *injected* cache
//! handle.
//!
//! Every experiment, calibration report and test that needs a basic-transfer
//! rate funnels through [`microbench::measure_basic`](crate::microbench::measure_basic),
//! and identical `(machine, transfer, words)` points recur across Tables
//! 1–3, the calibration report, the rate tables behind Section 5 and the
//! test tier. The end-to-end `xQy` exchanges recur the same way: Section 5,
//! Table 5, the accuracy grid, put-vs-get and the kernels re-run many of
//! the same two-node co-simulations. A [`MemoCache`] makes each distinct
//! point simulate exactly once per cache.
//!
//! ## Two tables, one handle
//!
//! A cache holds two tables built from one [`MemoConfig`] and sharing one
//! shard/CLOCK implementation:
//!
//! * the **basic table**, keyed by [`MemoKey`] `(machine fingerprint,
//!   transfer, words)` and holding [`Cached`] measurements — what
//!   [`cached`], [`MemoCache::get_or_insert`], [`MemoCache::stats`] and
//!   [`MemoCache::shard_stats`] address;
//! * the **exchange table**, keyed by an [`ExchangeKey`] — an exact word
//!   encoding of every input of `commops::run_exchange_specs` (machine
//!   fingerprint, both walk specs, style, configuration with floats stored
//!   by their bits), never a bare hash — and holding that layer's results
//!   type-erased (this crate cannot name `commops` types). Reached through
//!   [`cached_exchange`]; counted by [`MemoCache::exchange_stats`].
//!
//! Each table keeps its own hit/miss/eviction counters, so the basic
//! table's traffic reads the same whether or not exchanges are memoized.
//! Capacity and admission apply to each table alike: a cache configured
//! for `capacity` entries stores at most `capacity` basic points *and* at
//! most `capacity` exchanges, and the admission threshold compares the
//! payload words of either kind of point.
//!
//! ## The handle model
//!
//! There is deliberately **no process-wide cache**: earlier versions kept
//! one behind `static` storage, which meant two concurrent runs (the
//! simulation server, a test harness, a perf suite) bled entries and
//! counters into each other. Instead, whoever owns a run builds a
//! [`MemoHandle`] and [`install`]s it on the current thread; everything
//! downstream picks it up via [`current`], and a
//! [`memcomm_util::par`] propagator re-installs it inside every `par_map`
//! worker, mirroring how `memcomm_obs::Obs` handles travel. With no handle
//! installed, [`cached`] and [`cached_exchange`] simply simulate — correct,
//! just uncached.
//!
//! ## Sharding, eviction, admission
//!
//! Each table is split into shards, each an independently locked map, so
//! concurrent server workers rarely contend on one mutex. A bounded cache
//! ([`MemoConfig::capacity`]) evicts with the CLOCK (second-chance LRU
//! approximation) policy per shard: every hit sets a referenced bit, the
//! clock hand sweeps bits clear and evicts the first unreferenced entry.
//! Per-shard capacities sum exactly to the configured capacity, so the
//! bound is never exceeded, not even transiently. An admission threshold
//! ([`MemoConfig::admit_min_words`]) can keep cheap-to-recompute small
//! points out of a bounded cache entirely.
//!
//! Keys include a fingerprint of the *entire* machine configuration (hashed
//! from its `Debug` rendering), so mutated machines — the ablation studies
//! flip individual component parameters — never collide with the stock
//! configurations.
//!
//! Lookups take a shard lock briefly and simulations run outside it, so
//! parallel sweep workers never serialize on each other. Two workers racing
//! on the same missing key may both simulate it; the simulator is
//! deterministic, so both compute the same value and either insert wins.
//! Because values are pure functions of their keys, a warm cache, a cold
//! cache and no cache at all produce byte-identical results — the property
//! the served-vs-batch differential tier rests on.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, Once};

use memcomm_memsim::{Measurement, SimResult};
use memcomm_model::BasicTransfer;

use crate::Machine;

/// Basic-table key: machine fingerprint, transfer, payload words.
pub type MemoKey = (u64, BasicTransfer, u64);

/// Basic-table value: a measurement, `None` for transfers the machine does not
/// offer, or the deterministic simulation error.
pub type Cached = SimResult<Option<Measurement>>;

/// Exchange-table key: the exchange layer's exact word encoding of one
/// exchange's inputs (see the module docs).
pub type ExchangeKey = Box<[u64]>;

/// Exchange-table value: the exchange layer's result behind `dyn Any`.
type Erased = Arc<dyn Any + Send + Sync>;

/// FNV-1a over the machine's complete `Debug` rendering. Every calibrated
/// parameter shows up in the rendering, so any mutation changes the
/// fingerprint.
pub fn machine_fingerprint(machine: &Machine) -> u64 {
    let text = format!("{machine:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Sizing and admission knobs of a [`MemoCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoConfig {
    /// Lock shards (clamped to at least 1; bounded caches also clamp to at
    /// most `capacity` so per-shard budgets stay non-zero).
    pub shards: usize,
    /// Total entry budget across all shards; `0` = unbounded.
    pub capacity: usize,
    /// Admission threshold: points with fewer payload words than this are
    /// never stored (they are cheap to re-simulate); `0` admits everything.
    pub admit_min_words: u64,
}

impl Default for MemoConfig {
    /// 16 shards, unbounded, admit everything.
    fn default() -> Self {
        MemoConfig {
            shards: 16,
            capacity: 0,
            admit_min_words: 0,
        }
    }
}

/// A snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// Entries evicted by the CLOCK hand to stay within capacity.
    pub evictions: u64,
    /// Distinct points currently stored.
    pub entries: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot (entries reports the
    /// current absolute count).
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.wrapping_sub(earlier.hits),
            misses: self.misses.wrapping_sub(earlier.misses),
            evictions: self.evictions.wrapping_sub(earlier.evictions),
            entries: self.entries,
        }
    }
}

/// A snapshot of one shard's counters — the per-shard view the service
/// exports through the OpenMetrics exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups this shard answered from its map.
    pub hits: u64,
    /// Lookups this shard had to send to the simulator.
    pub misses: u64,
    /// Values actually stored (racing misses insert once).
    pub insertions: u64,
    /// Entries the CLOCK hand evicted.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: u64,
}

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    referenced: bool,
}

#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    hand: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    /// Sweeps the CLOCK hand to a victim, unmaps it, and returns its slot
    /// index for reuse. Terminates because each pass clears referenced
    /// bits: after at most one full sweep an unreferenced slot exists.
    fn evict_one(&mut self) -> usize {
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            if self.slots[i].referenced {
                self.slots[i].referenced = false;
            } else {
                self.map.remove(&self.slots[i].key);
                self.evictions += 1;
                return i;
            }
        }
    }

    /// Stores `key -> value`, evicting when the shard is at `cap`
    /// (`cap == 0` means unbounded). The caller has already checked the
    /// key is absent.
    fn insert(&mut self, key: K, value: V, cap: usize) {
        self.insertions += 1;
        let slot = Slot {
            key: key.clone(),
            value,
            referenced: true,
        };
        if cap > 0 && self.slots.len() >= cap {
            let i = self.evict_one();
            self.slots[i] = slot;
            self.map.insert(key, i);
        } else {
            self.map.insert(key, self.slots.len());
            self.slots.push(slot);
        }
    }
}

/// One sharded, bounded map — the shard/CLOCK machinery both of a
/// [`MemoCache`]'s tables run on.
#[derive(Debug)]
struct Table<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Per-shard entry budgets (0 = unbounded); they sum to the configured
    /// capacity exactly, so the total bound is strict.
    caps: Vec<usize>,
    admit_min_words: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Table<K, V> {
    fn new(config: MemoConfig) -> Self {
        let mut shards = config.shards.max(1);
        if config.capacity > 0 {
            shards = shards.min(config.capacity);
        }
        let caps = (0..shards)
            .map(|i| {
                if config.capacity == 0 {
                    0
                } else {
                    config.capacity / shards + usize::from(i < config.capacity % shards)
                }
            })
            .collect();
        Table {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            caps,
            admit_min_words: config.admit_min_words,
        }
    }

    fn shard_of(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn lock(&self, i: usize) -> MutexGuard<'_, Shard<K, V>> {
        self.shards[i].lock().expect("memo shard poisoned")
    }

    /// Looks a key up, simulating with `simulate` on a miss. The shard
    /// lock is held only for the lookup and (re-)insertion, never across
    /// the simulation. A point of fewer than the admission threshold's
    /// `words` is computed but never stored.
    fn get_or_insert(&self, key: K, words: u64, simulate: impl FnOnce() -> V) -> V {
        let si = self.shard_of(&key);
        {
            let mut shard = self.lock(si);
            if let Some(&slot) = shard.map.get(&key) {
                shard.hits += 1;
                shard.slots[slot].referenced = true;
                return shard.slots[slot].value.clone();
            }
            shard.misses += 1;
        }
        let value = simulate();
        if words >= self.admit_min_words {
            let mut shard = self.lock(si);
            if !shard.map.contains_key(&key) {
                shard.insert(key, value.clone(), self.caps[si]);
            }
        }
        value
    }

    fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for i in 0..self.shards.len() {
            let shard = self.lock(i);
            out.hits += shard.hits;
            out.misses += shard.misses;
            out.evictions += shard.evictions;
            out.entries += shard.map.len() as u64;
        }
        out
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        (0..self.shards.len())
            .map(|i| {
                let shard = self.lock(i);
                ShardStats {
                    hits: shard.hits,
                    misses: shard.misses,
                    insertions: shard.insertions,
                    evictions: shard.evictions,
                    entries: shard.map.len() as u64,
                }
            })
            .collect()
    }

    fn clear(&self) {
        for i in 0..self.shards.len() {
            *self.lock(i) = Shard::default();
        }
    }
}

/// A sharded, bounded, concurrently shared measurement cache with a basic
/// table and an exchange table. Cheap to share as a [`MemoHandle`]; see
/// the module docs for the design.
#[derive(Debug)]
pub struct MemoCache {
    basic: Table<MemoKey, Cached>,
    exchanges: Table<ExchangeKey, Erased>,
    config: MemoConfig,
}

/// A shared reference to a [`MemoCache`] — what gets installed, captured
/// and propagated across `par_map` fan-outs.
pub type MemoHandle = Arc<MemoCache>;

impl MemoCache {
    /// Builds a cache from `config` (see [`MemoConfig`] for clamping).
    pub fn new(config: MemoConfig) -> MemoCache {
        MemoCache {
            basic: Table::new(config),
            exchanges: Table::new(config),
            config,
        }
    }

    /// An unbounded cache with the default shard count, behind a handle.
    pub fn unbounded() -> MemoHandle {
        Arc::new(MemoCache::new(MemoConfig::default()))
    }

    /// Builds a cache behind a handle.
    pub fn handle(config: MemoConfig) -> MemoHandle {
        Arc::new(MemoCache::new(config))
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> MemoConfig {
        self.config
    }

    /// The number of shards per table actually in use (after clamping).
    pub fn shard_count(&self) -> usize {
        self.basic.shards.len()
    }

    /// Looks a basic-transfer point up, simulating with `simulate` on a
    /// miss. The shard lock is held only for the lookup and (re-)insertion,
    /// never across the simulation. Below the admission threshold the value
    /// is computed but never stored.
    pub fn get_or_insert(&self, key: MemoKey, simulate: impl FnOnce() -> Cached) -> Cached {
        self.basic.get_or_insert(key, key.2, simulate)
    }

    /// Aggregated basic-table counters across all shards.
    pub fn stats(&self) -> CacheStats {
        self.basic.stats()
    }

    /// Aggregated exchange-table counters across all shards.
    pub fn exchange_stats(&self) -> CacheStats {
        self.exchanges.stats()
    }

    /// Per-shard basic-table counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.basic.shard_stats()
    }

    /// Clears every entry and every counter of both tables.
    pub fn clear(&self) {
        self.basic.clear();
        self.exchanges.clear();
    }
}

thread_local! {
    static CURRENT: RefCell<Option<MemoHandle>> = const { RefCell::new(None) };
}

/// The handle installed on the current thread, if any.
pub fn current() -> Option<MemoHandle> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs `handle` on the current thread until the guard drops; nested
/// installs restore the previous handle. Also registers the `par_map`
/// propagator, so fan-outs started while this handle is installed inherit
/// it in every worker.
pub fn install(handle: &MemoHandle) -> MemoInstallGuard {
    ensure_propagator();
    let previous = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(handle)));
    MemoInstallGuard {
        previous: Some(previous),
    }
}

/// Restores the previously installed handle on drop.
#[derive(Debug)]
pub struct MemoInstallGuard {
    previous: Option<Option<MemoHandle>>,
}

impl Drop for MemoInstallGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            CURRENT.with(|c| *c.borrow_mut() = previous);
        }
    }
}

struct MemoCarrier(MemoHandle);

impl memcomm_util::par::CrossThread for MemoCarrier {
    fn install(&self) -> Box<dyn std::any::Any> {
        Box::new(install(&self.0))
    }
}

fn capture_current() -> Option<Box<dyn memcomm_util::par::CrossThread>> {
    current().map(|h| Box::new(MemoCarrier(h)) as Box<dyn memcomm_util::par::CrossThread>)
}

fn ensure_propagator() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| memcomm_util::par::set_propagator(capture_current));
}

/// Reads the current thread's basic-table statistics (zeros with no
/// handle installed).
pub fn stats() -> CacheStats {
    current().map(|c| c.stats()).unwrap_or_default()
}

/// Clears the current thread's cache — entries and counters — if one is
/// installed (used by perf harnesses to force cold runs).
pub fn reset() {
    if let Some(cache) = current() {
        cache.clear();
    }
}

/// Looks up a measurement point in the current thread's cache, simulating
/// it with `simulate` on a miss; with no handle installed it simulates
/// directly. `None` results (transfers the machine does not offer) and
/// errors are cached too — re-deciding that a T3D has no DMA, or that a
/// point fails deterministically, costs a lookup, not a simulation.
pub fn cached(
    machine: &Machine,
    transfer: BasicTransfer,
    words: u64,
    simulate: impl FnOnce() -> Cached,
) -> Cached {
    match current() {
        Some(cache) => {
            let key = (machine_fingerprint(machine), transfer, words);
            cache.get_or_insert(key, simulate)
        }
        None => simulate(),
    }
}

/// Looks an exchange up in the current thread's exchange table,
/// simulating it with `simulate` on a miss; with no handle installed it
/// simulates directly and never builds the key. `words` is the payload the
/// admission threshold compares. Errors are cached like values when `T` is
/// a `Result`, as basic points are.
///
/// # Panics
///
/// Panics if `key` was stored with a value of another type: one key
/// encoding belongs to one value type.
pub fn cached_exchange<T: Clone + Send + Sync + 'static>(
    key: impl FnOnce() -> ExchangeKey,
    words: u64,
    simulate: impl FnOnce() -> T,
) -> T {
    let Some(cache) = current() else {
        return simulate();
    };
    let value = cache
        .exchanges
        .get_or_insert(key(), words, || Arc::new(simulate()) as Erased);
    value
        .downcast_ref::<T>()
        .expect("an exchange key maps to one value type")
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits() {
        let cache = MemoCache::unbounded();
        let _g = install(&cache);
        let m = Machine::t3d();
        let t = BasicTransfer::parse("1C1").unwrap();
        let before = stats();
        let a = crate::microbench::measure_basic(&m, t, 777).unwrap();
        let b = crate::microbench::measure_basic(&m, t, 777).unwrap();
        assert_eq!(a, b);
        let delta = stats().since(before);
        assert!(delta.hits >= 1, "second lookup must hit: {delta:?}");
    }

    #[test]
    fn mutated_machines_do_not_collide() {
        let cache = MemoCache::unbounded();
        let _g = install(&cache);
        let stock = Machine::t3d();
        let mut ablated = Machine::t3d();
        ablated.node.path.readahead.enabled = false;
        assert_ne!(
            machine_fingerprint(&stock),
            machine_fingerprint(&ablated),
            "ablation must change the fingerprint"
        );
        let t = BasicTransfer::parse("1C0").unwrap();
        let on = crate::microbench::measure_basic(&stock, t, 2048)
            .unwrap()
            .unwrap();
        let off = crate::microbench::measure_basic(&ablated, t, 2048)
            .unwrap()
            .unwrap();
        assert_ne!(on.cycles, off.cycles, "read-ahead ablation must show");
    }

    #[test]
    fn none_results_are_cached() {
        let cache = MemoCache::unbounded();
        let _g = install(&cache);
        let t3d = Machine::t3d();
        let dma = BasicTransfer::parse("1F0").unwrap();
        assert!(crate::microbench::measure_basic(&t3d, dma, 555)
            .unwrap()
            .is_none());
        let before = stats();
        assert!(crate::microbench::measure_basic(&t3d, dma, 555)
            .unwrap()
            .is_none());
        assert!(stats().since(before).hits >= 1);
    }

    #[test]
    fn hit_rate_is_a_fraction() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            entries: 1,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let empty = CacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn without_a_handle_every_call_simulates() {
        assert!(current().is_none(), "test threads start with no handle");
        let m = Machine::t3d();
        let t = BasicTransfer::parse("1C1").unwrap();
        let mut runs = 0;
        for _ in 0..3 {
            let _ = cached(&m, t, 64, || {
                runs += 1;
                Ok(None)
            });
        }
        assert_eq!(runs, 3, "no handle means no caching");
        assert_eq!(stats(), CacheStats::default());
    }

    #[test]
    fn bounded_cache_evicts_with_clock_and_keeps_the_bound() {
        let cache = MemoCache::new(MemoConfig {
            shards: 1,
            capacity: 4,
            admit_min_words: 0,
        });
        let t = BasicTransfer::parse("1C1").unwrap();
        for i in 0..32u64 {
            let _ = cache.get_or_insert((i, t, 1), || Ok(None));
            assert!(cache.stats().entries <= 4, "bound violated at {i}");
        }
        let s = cache.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.misses, 32);
        assert_eq!(s.evictions, 28);
    }

    #[test]
    fn admission_threshold_keeps_small_points_out() {
        let cache = MemoCache::new(MemoConfig {
            shards: 2,
            capacity: 0,
            admit_min_words: 1024,
        });
        let t = BasicTransfer::parse("1C1").unwrap();
        let mut runs = 0;
        for _ in 0..2 {
            let _ = cache.get_or_insert((1, t, 512), || {
                runs += 1;
                Ok(None)
            });
        }
        assert_eq!(runs, 2, "512-word point must bypass admission");
        assert_eq!(cache.stats().entries, 0);
        for _ in 0..2 {
            let _ = cache.get_or_insert((1, t, 2048), || {
                runs += 1;
                Ok(None)
            });
        }
        assert_eq!(runs, 3, "2048-word point is admitted and then hits");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn capacity_smaller_than_shards_clamps_shards() {
        let cache = MemoCache::new(MemoConfig {
            shards: 16,
            capacity: 3,
            admit_min_words: 0,
        });
        assert_eq!(cache.shard_count(), 3);
        let t = BasicTransfer::parse("1C1").unwrap();
        for i in 0..64u64 {
            let _ = cache.get_or_insert((i, t, 1), || Ok(None));
        }
        assert!(cache.stats().entries <= 3);
    }

    #[test]
    fn exchange_table_is_separate_bounded_and_admits_like_the_basic_table() {
        let cache = MemoCache::handle(MemoConfig {
            shards: 2,
            capacity: 3,
            admit_min_words: 16,
        });
        let _g = install(&cache);
        let mut runs = 0;
        for i in 0..10u64 {
            for _ in 0..2 {
                let got = cached_exchange(
                    || vec![i, 99].into_boxed_slice(),
                    64,
                    || {
                        runs += 1;
                        Ok::<u64, String>(i * 7)
                    },
                );
                assert_eq!(got, Ok(i * 7));
                assert!(cache.exchange_stats().entries <= 3, "bound violated at {i}");
            }
        }
        assert_eq!(runs, 10, "each admitted key simulates once, then hits");
        let ex = cache.exchange_stats();
        assert_eq!(
            (ex.hits, ex.misses, ex.entries, ex.evictions),
            (10, 10, 3, 7)
        );
        assert_eq!(
            cache.stats(),
            CacheStats::default(),
            "basic table untouched"
        );
        // Below the threshold nothing is stored, so every lookup simulates.
        let before = cache.exchange_stats();
        for _ in 0..2 {
            cached_exchange(|| vec![1000].into_boxed_slice(), 8, || runs += 1);
        }
        assert_eq!(runs, 12);
        assert_eq!(cache.exchange_stats().since(before).misses, 2);
        cache.clear();
        assert_eq!(cache.exchange_stats(), CacheStats::default());
    }
}
