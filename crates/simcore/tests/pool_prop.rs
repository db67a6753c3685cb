//! Model-based property tests for the kernel's pooled storage
//! ([`sf_simcore::pool`]): arbitrary interleavings of queue operations over a
//! shared slab must behave exactly like independent `VecDeque`s. Because the
//! model queues are physically separate while the pooled lists share one
//! recycled slab, any aliasing of a *live* slot — a freed index handed out
//! while still linked, a cross-list chain corruption — shows up as a value
//! mismatch.

use std::collections::VecDeque;

use proptest::prelude::*;
use proptest::SampleRng;
use sf_simcore::pool::{InFlightMeta, InFlightPool, List, Pool};
use sf_simcore::{Packet, PacketKind};
use sf_types::{NodeId, VirtualChannelId};

const LISTS: usize = 4;

/// One step against a bank of FIFO queues sharing a pool.
#[derive(Debug, Clone, Copy)]
enum ListOp {
    Push { list: usize, value: u64 },
    Pop { list: usize },
    Front { list: usize },
}

#[derive(Debug, Clone, Copy)]
struct ListOpStrategy;

impl Strategy for ListOpStrategy {
    type Value = ListOp;
    fn sample(&self, rng: &mut SampleRng) -> ListOp {
        let list = rng.below(LISTS as u64) as usize;
        // Bias towards pushes so queues actually fill up.
        match rng.below(4) {
            0 | 1 => ListOp::Push {
                list,
                value: rng.next_u64(),
            },
            2 => ListOp::Pop { list },
            _ => ListOp::Front { list },
        }
    }
}

/// One step against the in-flight inbox.
#[derive(Debug, Clone, Copy)]
enum InboxOp {
    Push {
        arrival: u64,
    },
    /// Extract everything with `arrival_cycle <= due` (the kernel's
    /// arrival-drain shape).
    Drain {
        due: u64,
    },
    /// Extract by a non-prefix predicate (the kernel's fault-purge shape).
    Purge {
        modulus: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct InboxOpStrategy;

impl Strategy for InboxOpStrategy {
    type Value = InboxOp;
    fn sample(&self, rng: &mut SampleRng) -> InboxOp {
        match rng.below(5) {
            0..=2 => InboxOp::Push {
                arrival: rng.below(50),
            },
            3 => InboxOp::Drain { due: rng.below(50) },
            _ => InboxOp::Purge {
                modulus: 2 + rng.below(3),
            },
        }
    }
}

fn test_packet(id: u64) -> Packet {
    Packet {
        id,
        source: NodeId::new((id % 7) as usize),
        destination: NodeId::new((id % 5) as usize),
        kind: PacketKind::Synthetic,
        injected_at: id,
        request_issued_at: id,
        hops: 0,
        virtual_channel: VirtualChannelId::UP,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// N lists chained through ONE pool behave exactly like N independent
    /// `VecDeque`s: FIFO order per list, no value ever leaks between lists,
    /// and the live count always equals the sum of the model lengths (a slot
    /// is never simultaneously free and linked).
    #[test]
    fn pooled_lists_match_independent_deques(
        ops in proptest::collection::vec(ListOpStrategy, 1..200),
    ) {
        let mut pool: Pool<u64> = Pool::new();
        let mut lists = [List::new(); LISTS];
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); LISTS];
        for op in &ops {
            match *op {
                ListOp::Push { list, value } => {
                    lists[list].push_back(&mut pool, value);
                    model[list].push_back(value);
                }
                ListOp::Pop { list } => {
                    prop_assert_eq!(lists[list].pop_front(&mut pool), model[list].pop_front());
                }
                ListOp::Front { list } => {
                    prop_assert_eq!(
                        lists[list].front(&pool).copied(),
                        model[list].front().copied()
                    );
                }
            }
            let live: usize = model.iter().map(VecDeque::len).sum();
            prop_assert_eq!(pool.live() as usize, live);
            for (list, queue) in lists.iter().zip(&model) {
                prop_assert_eq!(list.len() as usize, queue.len());
                prop_assert_eq!(list.is_empty(), queue.is_empty());
            }
        }
        // Drain everything: the full remaining contents must match, in order.
        for (list, queue) in lists.iter_mut().zip(&mut model) {
            while let Some(expected) = queue.pop_front() {
                prop_assert_eq!(list.pop_front(&mut pool), Some(expected));
            }
            prop_assert!(list.pop_front(&mut pool).is_none());
        }
        prop_assert_eq!(pool.live(), 0);
        // Recycling must have kept the slab at its high-water mark, not the
        // push total.
        prop_assert!(pool.capacity() as u64 <= pool.pushes());
    }

    /// The in-flight inbox against a `VecDeque<(meta, packet)>` model:
    /// `extract_if` yields matches in FIFO order, survivors keep their
    /// relative order, and recycled slots never alias a live entry (every
    /// packet read back is bit-identical to the one pushed).
    #[test]
    fn inflight_pool_matches_deque_model(
        ops in proptest::collection::vec(InboxOpStrategy, 1..150),
    ) {
        let mut inbox = InFlightPool::new();
        let mut model: VecDeque<(InFlightMeta, Packet)> = VecDeque::new();
        let mut next_id = 0u64;
        for op in &ops {
            match *op {
                InboxOp::Push { arrival } => {
                    let meta = InFlightMeta {
                        arrival_cycle: arrival,
                        to_node: (next_id % 11) as u32,
                        port: (next_id % 3) as u32,
                        vc: (next_id % 2) as u32,
                    };
                    inbox.push(meta, test_packet(next_id));
                    model.push_back((meta, test_packet(next_id)));
                    next_id += 1;
                }
                InboxOp::Drain { due } => {
                    let mut got = Vec::new();
                    inbox.extract_if(|m| m.arrival_cycle <= due, |m, p| got.push((m, p)));
                    let mut expected = Vec::new();
                    model.retain(|&(m, p)| {
                        if m.arrival_cycle <= due {
                            expected.push((m, p));
                            false
                        } else {
                            true
                        }
                    });
                    prop_assert_eq!(got, expected);
                }
                InboxOp::Purge { modulus } => {
                    let mut got = Vec::new();
                    inbox.extract_if(|m| m.arrival_cycle % modulus == 0, |m, p| got.push((m, p)));
                    let mut expected = Vec::new();
                    model.retain(|&(m, p)| {
                        if m.arrival_cycle % modulus == 0 {
                            expected.push((m, p));
                            false
                        } else {
                            true
                        }
                    });
                    prop_assert_eq!(got, expected);
                }
            }
            prop_assert_eq!(inbox.len() as usize, model.len());
        }
        // Survivors drain in model order — and every slot is recycled.
        let mut rest = Vec::new();
        inbox.extract_if(|_| true, |m, p| rest.push((m, p)));
        prop_assert_eq!(rest, Vec::from(model.clone()));
        prop_assert!(inbox.is_empty());
        prop_assert!(inbox.capacity() as u64 <= inbox.pushes());
    }
}
