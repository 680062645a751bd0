//! The simulation counters (`memsim::stats`) count simulations, not reads
//! of their results: a co-simulated exchange counts once, when it
//! finishes, however often its throughput is read or its result replayed
//! from the memo's exchange table.
//!
//! One `#[test]`: the counters are process-wide, so a second test
//! simulating in this binary at the same time would bleed into them.

use memcomm_commops::{run_exchange, run_get_exchange, ExchangeConfig, Style};
use memcomm_machines::memo::{self, MemoCache};
use memcomm_machines::Machine;
use memcomm_memsim::stats;
use memcomm_model::AccessPattern;

#[test]
fn exchanges_count_once_where_they_are_simulated() {
    let m = Machine::t3d();
    let cfg = ExchangeConfig {
        words: 256,
        ..ExchangeConfig::default()
    };
    let (x, y) = (AccessPattern::Contiguous, AccessPattern::Strided(8));
    let exchange = || run_exchange(&m, x, y, Style::Chained, &cfg).expect("simulates");

    let before = stats::counters();
    let first = exchange();
    let simulated = stats::counters().since(before);
    assert_eq!(
        (simulated.measurements, simulated.cycles, simulated.words),
        (1, first.end_cycle, cfg.words),
        "one finished simulation counts once"
    );

    let before = stats::counters();
    for _ in 0..3 {
        let _ = first.per_node(m.clock());
        let _ = first.measurement();
    }
    assert_eq!(
        stats::counters().since(before).measurements,
        0,
        "reads count nothing"
    );

    let cache = MemoCache::unbounded();
    let _installed = memo::install(&cache);
    let before = stats::counters();
    let miss = exchange();
    let hit = exchange();
    assert_eq!((miss, hit), (first, first));
    assert_eq!(
        stats::counters().since(before).measurements,
        1,
        "the memo miss simulates and counts; the hit counts nothing"
    );
    assert_eq!(
        (cache.exchange_stats().hits, cache.exchange_stats().misses),
        (1, 1)
    );

    // Gets are not memoized: each one is a simulation and counts once.
    let before = stats::counters();
    let get = run_get_exchange(&m, x, y, &cfg).expect("simulates");
    let _ = get.per_node(m.clock());
    let counted = stats::counters().since(before);
    assert_eq!((counted.measurements, counted.cycles), (1, get.end_cycle));
}
