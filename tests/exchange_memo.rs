//! The exchange memo: co-simulated `xQy` exchanges are memoized in the
//! run's memo handle (`machines::memo`'s exchange table), keyed by every
//! input of `run_exchange_specs`.
//!
//! * With the memo on — cold, warm or bounded and evicting — every exchange
//!   of a grid returns exactly what it returns with the memo off, errors
//!   included. Grid points differ in one input at a time, so a key that
//!   left an input out would answer one point with another's result.
//! * A cold serial `--all` sweep simulates each distinct exchange once and
//!   leaves the basic-transfer table's traffic as it was.

use std::collections::BTreeSet;

use memcomm::commops::{run_exchange_specs, ExchangeConfig, ExchangeResult, Style, WalkSpec};
use memcomm::machines::memo::{self, MemoCache, MemoConfig};
use memcomm::machines::Machine;
use memcomm::memsim::SimResult;
use memcomm::model::AccessPattern;
use memcomm_bench::runner::{run_sweep, SweepOptions};

const WORDS: u64 = 128;

type Point = (Machine, WalkSpec, WalkSpec, Style, ExchangeConfig);

fn grid() -> Vec<Point> {
    let pattern = WalkSpec::Pattern;
    let contiguous = pattern(AccessPattern::Contiguous);
    let strided = pattern(AccessPattern::Strided(16));
    // A permuted stride-2 walk: explicit offsets that classify as indexed.
    let offsets = WalkSpec::Offsets((0..WORDS as u32).map(|i| (i * 37 % 128) * 2).collect());
    let base = ExchangeConfig {
        words: WORDS,
        ..ExchangeConfig::default()
    };
    let configs = [
        base,
        ExchangeConfig {
            congestion: Some(1.0),
            ..base
        },
        ExchangeConfig { seed: 7, ..base },
        // Far too few cycles: a `CycleBudget` error.
        ExchangeConfig {
            max_cycles: Some(500),
            ..base
        },
        // The offset lists no longer match the word count: `InvalidWalk`
        // for the offset-list points.
        ExchangeConfig { words: 64, ..base },
    ];
    let specs = [
        (contiguous.clone(), contiguous.clone()),
        (contiguous.clone(), strided),
        (offsets.clone(), contiguous),
        (offsets.clone(), offsets),
    ];
    let mut points = Vec::new();
    for machine in [Machine::t3d(), Machine::paragon()] {
        for style in [Style::BufferPacking, Style::Chained] {
            for (x, y) in &specs {
                for cfg in configs {
                    points.push((machine.clone(), x.clone(), y.clone(), style, cfg));
                }
            }
        }
    }
    points
}

fn run_all(points: &[Point]) -> Vec<SimResult<ExchangeResult>> {
    points
        .iter()
        .map(|(m, x, y, style, cfg)| run_exchange_specs(m, x, y, *style, cfg))
        .collect()
}

#[test]
fn memo_on_and_off_give_identical_exchanges() {
    let points = grid();
    assert!(
        memo::current().is_none(),
        "test threads start with no handle"
    );
    let off = run_all(&points);
    assert!(off.iter().any(|r| r.as_ref().is_ok_and(|r| r.verified)));
    assert!(
        off.iter().filter(|r| r.is_err()).count() >= 2 * 2 * 4 + 2 * 2 * 2,
        "the budget and the mismatched-offsets points must fail"
    );

    let cache = MemoCache::unbounded();
    let _installed = memo::install(&cache);
    let cold = run_all(&points);
    assert_eq!(cold, off, "a cold memo must not change any exchange");
    let filled = cache.exchange_stats();
    assert_eq!(
        filled.misses,
        points.len() as u64,
        "every point is distinct"
    );
    assert_eq!(filled.entries, points.len() as u64);
    let warm = run_all(&points);
    assert_eq!(warm, off, "replayed exchanges, errors included, must match");
    let replayed = cache.exchange_stats().since(filled);
    assert_eq!((replayed.hits, replayed.misses), (points.len() as u64, 0));
    assert_eq!(
        cache.stats().hits + cache.stats().misses,
        0,
        "no basic traffic"
    );

    // A bounded memo evicts and recomputes, and still never changes a value.
    let bounded = MemoCache::handle(MemoConfig {
        shards: 2,
        capacity: 5,
        admit_min_words: 0,
    });
    let _bounded = memo::install(&bounded);
    for _ in 0..2 {
        assert_eq!(
            run_all(&points),
            off,
            "a bounded memo must not change any exchange"
        );
        assert!(bounded.exchange_stats().entries <= 5);
    }
    let stats = bounded.exchange_stats();
    assert!(stats.evictions > 0, "more points than capacity: {stats:?}");
}

#[test]
fn a_cold_serial_sweep_simulates_each_exchange_once() {
    let (report, metrics) = run_sweep(&SweepOptions {
        jobs: 1,
        sections: BTreeSet::new(),
        ..SweepOptions::default()
    });
    assert_eq!(metrics.points, 183, "{:?}", report.sections);
    let ex = metrics.exchanges;
    assert_eq!(
        (ex.misses, ex.hits, ex.entries),
        (62, 49, 62),
        "111 exchange calls over 62 distinct exchanges: {ex:?}"
    );
    let basic = metrics.cache;
    assert_eq!(
        (basic.hits, basic.misses),
        (314, 144),
        "basic-transfer memo traffic must not move: {basic:?}"
    );
}
