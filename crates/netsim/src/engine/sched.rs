//! Queue substrates of the engine: rank-ordered router queues (per-flow
//! lanes or the reference heap), the in-flight delivery record, and the
//! time-ordered store of deliveries awaiting their arrival window (timing
//! wheel or the reference heap).
//!
//! Everything here is ordering-critical: the differential tier
//! (`tests/wheel_vs_heap.rs`) proves both router-queue substrates pop the
//! same entries in the same order, case by case.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use memcomm_memsim::clock::Cycle;
use memcomm_util::arena::{Arena, NIL};
use memcomm_util::wheel::TimingWheel;

/// Queued word waiting to transmit on a link. Orders by (rank, ready),
/// where the rank is [`word_rank`] of the globally unique `seq` (word index
/// in the high bits), so a backlogged link interleaves competing flows word
/// by word — the deterministic analogue of a router's round-robin arbiter.
/// Arrival-order service would instead let the flow nearest the bottleneck
/// convoy hundreds of words ahead, starving the links downstream of the
/// other flows' turns.
///
/// The rank is computed at compare time rather than stored, and the
/// critical-path ledgers live in the run's side table
/// ([`Ledger`](super::build::Ledger)), keeping the entry at 32 bytes: every
/// queue push, pop and arena slot copies it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct QEntry {
    pub ready: Cycle,
    pub seq: u64,
    pub hop: u16,
    /// Upstream buffer the word still occupies (`u32::MAX` = none, the word
    /// came straight off its injection port).
    pub prev_link: u32,
    pub prev_vc: u8,
    /// Fault-drop retransmissions already spent on this hop; the retry
    /// policy abandons the word once the budget runs out. Trails the
    /// ordering fields, so it never perturbs arbitration.
    pub tries: u32,
}

impl QEntry {
    fn key(&self) -> (u64, Cycle, u64, u16, u32, u8, u32) {
        (
            word_rank(self.seq),
            self.ready,
            self.seq,
            self.hop,
            self.prev_link,
            self.prev_vc,
            self.tries,
        )
    }
}

impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Word-major arbitration rank: `seq` packs `flow << 32 | word`, so the
/// rotation compares word index first and flow index only on ties. Ranks
/// are a bijection of the globally unique `seq`, so within any one queue
/// the rank alone already totals the order — the remaining [`QEntry`]
/// fields never break a tie.
pub(crate) fn word_rank(seq: u64) -> u64 {
    seq.rotate_left(32)
}

/// Per-flow FIFO lanes over a shared [`Arena`], plus a lazy min-heap of
/// lane-head `(rank, lane)` candidates.
///
/// Correctness rests on one invariant: *words of a flow reach any given
/// queue in ascending rank order.* Injection emits a flow's words in word
/// order; on every shared link the earlier word (lower rank in the same
/// lane) transmits first and the link's `free` cursor is monotone, so
/// arrival stamps — and barrier filing, which is globally `(arrive, seq)`
/// sorted — preserve per-flow order hop by hop, even under Delay faults
/// (the delay moves `free` for both words alike). A Drop retry re-files
/// the entry it just popped, which is a *prepend*, not an append. Each
/// lane is therefore pre-sorted, the queue minimum is always a lane head,
/// and the head heap is over flows (tens) instead of words (thousands).
///
/// The head heap is *lazy*: prepends push a fresh candidate without
/// retracting the old head's entry, so stale candidates linger and are
/// discarded when they surface ([`LaneQueue::settle`]). Every non-empty
/// lane always has its current head among the candidates.
#[derive(Debug)]
pub(crate) struct LaneQueue {
    /// `(head, tail)` arena indices per lane ([`NIL`] = empty lane).
    lanes: Vec<(u32, u32)>,
    /// Lazy min-heap of `(head rank, lane)` candidates.
    heads: BinaryHeap<Reverse<(u64, u32)>>,
    len: u32,
}

impl LaneQueue {
    fn new(lanes: u32) -> LaneQueue {
        LaneQueue {
            lanes: vec![(NIL, NIL); lanes as usize],
            heads: BinaryHeap::new(),
            len: 0,
        }
    }

    fn push_back(&mut self, lane: u32, e: QEntry, arena: &mut Arena<QEntry>) {
        let idx = arena.alloc(e);
        let slot = &mut self.lanes[lane as usize];
        if slot.0 == NIL {
            *slot = (idx, idx);
            self.heads.push(Reverse((word_rank(e.seq), lane)));
        } else {
            debug_assert!(
                word_rank(arena.get(slot.1).seq) < word_rank(e.seq),
                "lane rank monotonicity violated"
            );
            arena.set_next(slot.1, idx);
            slot.1 = idx;
        }
        self.len += 1;
    }

    fn push_front(&mut self, lane: u32, e: QEntry, arena: &mut Arena<QEntry>) {
        let idx = arena.alloc(e);
        let slot = &mut self.lanes[lane as usize];
        if slot.0 == NIL {
            slot.1 = idx;
        } else {
            arena.set_next(idx, slot.0);
        }
        slot.0 = idx;
        self.heads.push(Reverse((word_rank(e.seq), lane)));
        self.len += 1;
    }

    /// Discards stale head candidates until the top one is live.
    fn settle(&mut self, arena: &Arena<QEntry>) {
        while let Some(&Reverse((rank, lane))) = self.heads.peek() {
            let head = self.lanes[lane as usize].0;
            if head != NIL && word_rank(arena.get(head).seq) == rank {
                return;
            }
            self.heads.pop();
        }
    }

    fn peek(&mut self, arena: &Arena<QEntry>) -> Option<QEntry> {
        self.settle(arena);
        let &Reverse((_, lane)) = self.heads.peek()?;
        Some(*arena.get(self.lanes[lane as usize].0))
    }

    /// Pops the head [`LaneQueue::peek`] just returned: the peek settled
    /// the head heap, so its top is live and needs no second check.
    fn pop(&mut self, arena: &mut Arena<QEntry>) -> QEntry {
        let mut top = self.heads.peek_mut().expect("pop on an empty router queue");
        let Reverse((rank, lane)) = *top;
        let slot = &mut self.lanes[lane as usize];
        let head = slot.0;
        debug_assert!(
            head != NIL && word_rank(arena.get(head).seq) == rank,
            "pop without a settling peek: the top of the head heap is stale"
        );
        let next = arena.next(head);
        let e = arena.free(head);
        slot.0 = next;
        if next == NIL {
            slot.1 = NIL;
            PeekMut::pop(top);
        } else {
            // The lane's next word replaces its head in place: one sift
            // instead of a pop and a push.
            *top = Reverse((word_rank(arena.get(next).seq), lane));
        }
        self.len -= 1;
        e
    }
}

/// A rank-ordered router queue under either scheduler substrate. Both pop
/// the same entries in the same order; the heap variant is the retired
/// reference implementation.
#[derive(Debug)]
pub(crate) enum RouterQueue {
    Heap(BinaryHeap<Reverse<QEntry>>),
    Lanes(LaneQueue),
}

impl RouterQueue {
    pub fn new(reference: bool, lanes: u32) -> RouterQueue {
        if reference {
            RouterQueue::Heap(BinaryHeap::new())
        } else {
            RouterQueue::Lanes(LaneQueue::new(lanes))
        }
    }

    pub fn len(&self) -> u64 {
        match self {
            RouterQueue::Heap(h) => h.len() as u64,
            RouterQueue::Lanes(l) => u64::from(l.len),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Files a word that arrived over the network or off its injection
    /// port; lane mode appends (per-flow arrivals are rank-ascending).
    pub fn push_arrival(&mut self, lane: u32, e: QEntry, arena: &mut Arena<QEntry>) {
        match self {
            RouterQueue::Heap(h) => h.push(Reverse(e)),
            RouterQueue::Lanes(l) => l.push_back(lane, e, arena),
        }
    }

    /// Re-files the entry just popped (a dropped word retrying): its rank
    /// is still the lane minimum, so lane mode prepends.
    pub fn push_retry(&mut self, lane: u32, e: QEntry, arena: &mut Arena<QEntry>) {
        match self {
            RouterQueue::Heap(h) => h.push(Reverse(e)),
            RouterQueue::Lanes(l) => l.push_front(lane, e, arena),
        }
    }

    /// The minimum-rank entry, if any.
    pub fn peek(&mut self, arena: &Arena<QEntry>) -> Option<QEntry> {
        match self {
            RouterQueue::Heap(h) => h.peek().map(|&Reverse(e)| e),
            RouterQueue::Lanes(l) => l.peek(arena),
        }
    }

    /// Removes the entry the last [`RouterQueue::peek`] returned; callers
    /// always peek first, and nothing may touch the queue in between.
    pub fn pop(&mut self, arena: &mut Arena<QEntry>) -> QEntry {
        match self {
            RouterQueue::Heap(h) => h.pop().expect("pop on an empty router queue").0,
            RouterQueue::Lanes(l) => l.pop(arena),
        }
    }
}

/// A word in flight between windows: transmitted during one window,
/// delivered at the barrier opening the window containing `arrive`.
/// Orders by `(arrive, seq)`, unique per word; the rest never breaks a tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Delivery {
    pub arrive: Cycle,
    pub seq: u64,
    pub hop: u16,
    pub to_node: u32,
    pub via_link: u32,
    pub vc: u8,
}

/// A shard's in-flight deliveries — words bound for its nodes that have not
/// arrived yet — under either scheduler. Each shard drains its own store at
/// the opening of every window, in ascending `(arrive, seq)` order: the
/// subsequence, for its nodes, of the global arrival order.
pub(crate) enum PendingQueue {
    /// The retired binary heap.
    Heap(BinaryHeap<Reverse<Delivery>>),
    /// The production cycle-bucketed wheel; deliveries are genuinely
    /// time-keyed (a window releases everything below its end, tie-broken
    /// by the unique `seq` inside [`Delivery`]'s derived order).
    Wheel(TimingWheel<Delivery>),
}

impl PendingQueue {
    /// A heap (`reference`) or a wheel covering `horizon` cycles.
    pub fn new(reference: bool, horizon: Cycle) -> PendingQueue {
        if reference {
            PendingQueue::Heap(BinaryHeap::new())
        } else {
            PendingQueue::Wheel(TimingWheel::new(horizon))
        }
    }

    pub fn len(&self) -> u64 {
        match self {
            PendingQueue::Heap(h) => h.len() as u64,
            PendingQueue::Wheel(w) => w.len() as u64,
        }
    }

    pub fn push(&mut self, d: Delivery) {
        match self {
            PendingQueue::Heap(h) => h.push(Reverse(d)),
            PendingQueue::Wheel(w) => w.push(d.arrive, d),
        }
    }

    /// Emits every delivery arriving before `t1` in ascending
    /// `(arrive, seq)` order — the wheel's bucket order and the heap's pop
    /// order agree.
    pub fn drain_until(&mut self, t1: Cycle, mut emit: impl FnMut(Delivery)) {
        match self {
            PendingQueue::Heap(h) => {
                while h.peek().is_some_and(|Reverse(d)| d.arrive < t1) {
                    let Reverse(d) = h.pop().expect("peeked");
                    emit(d);
                }
            }
            PendingQueue::Wheel(w) => w.drain_until(t1, |_, d| emit(d)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_path_entries_stay_within_32_bytes() {
        // Every hop copies a QEntry (queue + arena slot) and a Delivery
        // (outbox + arrival store); a new field here costs every flit.
        assert!(std::mem::size_of::<QEntry>() <= 32);
        assert!(std::mem::size_of::<Delivery>() <= 32);
    }

    #[test]
    fn entries_order_by_word_rank_first() {
        // Word 0 of flow 5 outranks word 1 of flow 0, whatever the ready
        // cycles say.
        let a = QEntry {
            ready: 100,
            seq: 5 << 32,
            ..QEntry::default()
        };
        let b = QEntry {
            ready: 0,
            seq: 1,
            ..QEntry::default()
        };
        assert!(a < b);
        let c = QEntry { ready: 101, ..a };
        assert!(a < c, "ready breaks rank ties");
    }
}
