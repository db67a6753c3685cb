//! Index-linked free-list pools backing the kernel's hot-loop storage.
//!
//! A router input queue as its own `VecDeque<Packet>`, and an injection
//! queue as another, would churn thousands of little heap objects per cycle.
//! This module replaces them with three slab structures so that a
//! steady-state cycle performs **zero heap allocations**:
//!
//! * [`Pool<T>`] — a slab of `T` slots, each with a `u32` link that chains
//!   the free list or a [`List`]. Allocation pops the free list; freeing
//!   pushes it back. The slab only grows while the
//!   simulation is still discovering its high-water mark; after warm-up every
//!   alloc recycles a previously freed slot.
//! * [`List`] — a 12-byte FIFO handle (`head`/`tail`/`len`) chaining slots of
//!   a [`Pool`]. Hundreds of queues share one pool: every router's input
//!   queues and its injection queue are each a [`List`] over the simulator's
//!   packet pool.
//! * [`InFlightPool`] — the kernel's one in-flight queue: a struct-of-arrays
//!   slab of in-flight link traversals (arrival cycles, destinations, and
//!   packets in separate columns, so the per-cycle due-scan touches only the
//!   metadata columns) with a single built-in FIFO chain and a one-pass
//!   [`extract_if`](InFlightPool::extract_if) that unlinks matching entries
//!   in place — the primitive behind both arrival draining and fault purges.
//!
//! Slot indices are internal bookkeeping; the *values* observed through
//! `push`/`pop`/`front` depend only on per-list FIFO order.

use crate::packet::Packet;

/// Sentinel "null" slot index terminating free lists and FIFO chains.
const NIL: u32 = u32::MAX;

/// A slab allocator of `T` with an intrusive `u32` free list.
///
/// `T: Copy` keeps `alloc`/`free` a plain slot write/read with no drop glue —
/// exactly the layout discipline (dense slabs, index links instead of
/// pointers) the BookSim/gem5 lineage of simulators uses for packet storage.
/// Each value sits next to its link in one `Vec`: a slab that grows is one
/// buffer that can extend in place, not two parallel ones that block each
/// other's growth and leave a trail of moved-out holes in the heap.
#[derive(Debug, Clone)]
pub struct Pool<T: Copy> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    live: u32,
    pushes: u64,
    grows: u64,
}

/// One pool slot: its value and its link — the free-list successor when
/// the slot is free, the FIFO successor when it is live inside a [`List`].
#[derive(Debug, Clone, Copy)]
struct Slot<T> {
    value: T,
    next: u32,
}

impl<T: Copy> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Pool<T> {
    /// Creates an empty pool; slots are created on demand by `alloc`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
            pushes: 0,
            grows: 0,
        }
    }

    fn alloc(&mut self, value: T) -> u32 {
        self.live += 1;
        self.pushes += 1;
        if self.free_head == NIL {
            self.grows += 1;
            let idx = self.slots.len() as u32;
            self.slots.push(Slot { value, next: NIL });
            return idx;
        }
        let idx = self.free_head;
        self.free_head = self.slots[idx as usize].next;
        self.slots[idx as usize] = Slot { value, next: NIL };
        idx
    }

    fn free(&mut self, idx: u32) -> T {
        let value = self.slots[idx as usize].value;
        self.slots[idx as usize].next = self.free_head;
        self.free_head = idx;
        self.live -= 1;
        value
    }

    /// Number of slots currently held by lists chained through this pool.
    #[must_use]
    pub fn live(&self) -> u32 {
        self.live
    }

    /// Total slots ever created (the pool's high-water mark; never shrinks).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total allocations served over the pool's lifetime.
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Allocations that had to create a new slot instead of recycling one —
    /// constant once the simulation reaches its steady state.
    #[must_use]
    pub fn grows(&self) -> u64 {
        self.grows
    }
}

/// A FIFO queue handle chaining slots of a [`Pool`]. Copyable and 12 bytes:
/// a router stores one per input queue where it used to own a `VecDeque`.
///
/// A `List` must always be used with the pool its slots were allocated from;
/// mixing pools corrupts both (the kernel enforces this by construction —
/// every queue chains through the simulator's one packet pool).
#[derive(Debug, Clone, Copy)]
pub struct List {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for List {
    fn default() -> Self {
        Self::new()
    }
}

impl List {
    /// An empty list.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Appends `value` to the back of the queue.
    pub fn push_back<T: Copy>(&mut self, pool: &mut Pool<T>, value: T) {
        let idx = pool.alloc(value);
        if self.tail == NIL {
            self.head = idx;
        } else {
            pool.slots[self.tail as usize].next = idx;
        }
        self.tail = idx;
        self.len += 1;
    }

    /// Removes and returns the front of the queue, recycling its slot.
    pub fn pop_front<T: Copy>(&mut self, pool: &mut Pool<T>) -> Option<T> {
        if self.head == NIL {
            return None;
        }
        let idx = self.head;
        self.head = pool.slots[idx as usize].next;
        if self.head == NIL {
            self.tail = NIL;
        }
        self.len -= 1;
        Some(pool.free(idx))
    }

    /// The front of the queue without removing it.
    #[must_use]
    pub fn front<'p, T: Copy>(&self, pool: &'p Pool<T>) -> Option<&'p T> {
        if self.head == NIL {
            return None;
        }
        Some(&pool.slots[self.head as usize].value)
    }

    /// Number of queued values.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Metadata of one in-flight link traversal (everything the due-scan and
/// fault purges need without touching the packet column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlightMeta {
    /// Cycle at which the packet reaches the downstream input queue.
    pub arrival_cycle: u64,
    /// Receiving router.
    pub to_node: u32,
    /// Position of the sender in the receiver's adjacency list (= input
    /// queue group).
    pub from_index: u32,
    /// Virtual channel the packet occupies.
    pub vc: u32,
}

/// The packets in flight on links, stored as a struct-of-arrays slab with one
/// built-in FIFO chain.
///
/// Pushed at forward time, in the kernel's routing order, so the push order
/// is deterministic; drained of due arrivals before each cycle's routing and
/// purged of fault victims at cycle boundaries.
#[derive(Debug)]
pub struct InFlightPool {
    arrival: Vec<u64>,
    to_node: Vec<u32>,
    from_index: Vec<u32>,
    vc: Vec<u32>,
    packet: Vec<Packet>,
    next: Vec<u32>,
    free_head: u32,
    head: u32,
    tail: u32,
    len: u32,
    pushes: u64,
    grows: u64,
}

impl Default for InFlightPool {
    fn default() -> Self {
        Self::new()
    }
}

impl InFlightPool {
    /// Creates an empty in-flight queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            arrival: Vec::new(),
            to_node: Vec::new(),
            from_index: Vec::new(),
            vc: Vec::new(),
            packet: Vec::new(),
            next: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            pushes: 0,
            grows: 0,
        }
    }

    /// Appends one in-flight entry.
    pub fn push(&mut self, meta: InFlightMeta, packet: Packet) {
        self.len += 1;
        self.pushes += 1;
        let idx = if self.free_head == NIL {
            self.grows += 1;
            let idx = self.arrival.len() as u32;
            self.arrival.push(meta.arrival_cycle);
            self.to_node.push(meta.to_node);
            self.from_index.push(meta.from_index);
            self.vc.push(meta.vc);
            self.packet.push(packet);
            self.next.push(NIL);
            idx
        } else {
            let idx = self.free_head;
            let i = idx as usize;
            self.free_head = self.next[i];
            self.arrival[i] = meta.arrival_cycle;
            self.to_node[i] = meta.to_node;
            self.from_index[i] = meta.from_index;
            self.vc[i] = meta.vc;
            self.packet[i] = packet;
            self.next[i] = NIL;
            idx
        };
        if self.tail == NIL {
            self.head = idx;
        } else {
            self.next[self.tail as usize] = idx;
        }
        self.tail = idx;
    }

    /// Extracts every entry matching `pred` in one in-place pass, in FIFO
    /// order, feeding each to `sink` — no take-and-rebuild, no allocation.
    /// Non-matching entries keep their relative order.
    pub fn extract_if(
        &mut self,
        mut pred: impl FnMut(InFlightMeta) -> bool,
        mut sink: impl FnMut(InFlightMeta, Packet),
    ) {
        let mut prev = NIL;
        let mut cur = self.head;
        while cur != NIL {
            let i = cur as usize;
            let meta = InFlightMeta {
                arrival_cycle: self.arrival[i],
                to_node: self.to_node[i],
                from_index: self.from_index[i],
                vc: self.vc[i],
            };
            let next = self.next[i];
            if pred(meta) {
                // Unlink and recycle the slot before the sink runs, so a
                // sink that pushes into *another* pool sees this one
                // consistent.
                if prev == NIL {
                    self.head = next;
                } else {
                    self.next[prev as usize] = next;
                }
                if next == NIL {
                    self.tail = prev;
                }
                self.next[i] = self.free_head;
                self.free_head = cur;
                self.len -= 1;
                let packet = self.packet[i];
                sink(meta, packet);
            } else {
                prev = cur;
            }
            cur = next;
        }
    }

    /// Number of packets currently in flight.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever created (high-water mark; never shrinks).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.arrival.len()
    }

    /// Total entries ever pushed.
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Pushes that created a new slot instead of recycling one.
    #[must_use]
    pub fn grows(&self) -> u64 {
        self.grows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_types::{NodeId, VirtualChannelId};

    fn packet(id: u64) -> Packet {
        Packet {
            id,
            source: NodeId::new(0),
            destination: NodeId::new(1),
            kind: crate::packet::PacketKind::Synthetic,
            injected_at: 0,
            request_issued_at: 0,
            hops: 0,
            virtual_channel: VirtualChannelId::UP,
        }
    }

    #[test]
    fn list_is_fifo_and_recycles_slots() {
        let mut pool: Pool<u64> = Pool::new();
        let mut a = List::new();
        let mut b = List::new();
        for i in 0..4 {
            a.push_back(&mut pool, i);
            b.push_back(&mut pool, 100 + i);
        }
        assert_eq!(pool.live(), 8);
        assert_eq!(a.front(&pool), Some(&0));
        assert_eq!(a.pop_front(&mut pool), Some(0));
        assert_eq!(b.pop_front(&mut pool), Some(100));
        // Freed slots are reused before the slab grows.
        let grows = pool.grows();
        a.push_back(&mut pool, 4);
        b.push_back(&mut pool, 104);
        assert_eq!(pool.grows(), grows);
        let drained: Vec<u64> = std::iter::from_fn(|| a.pop_front(&mut pool)).collect();
        assert_eq!(drained, vec![1, 2, 3, 4]);
        assert!(a.is_empty());
        let drained: Vec<u64> = std::iter::from_fn(|| b.pop_front(&mut pool)).collect();
        assert_eq!(drained, vec![101, 102, 103, 104]);
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.pushes(), 10);
    }

    #[test]
    fn inflight_extract_if_preserves_order_and_recycles() {
        let mut inbox = InFlightPool::new();
        for i in 0..6u64 {
            inbox.push(
                InFlightMeta {
                    arrival_cycle: i,
                    to_node: i as u32,
                    from_index: 0,
                    vc: 0,
                },
                packet(i),
            );
        }
        // Extract the even arrival cycles; order within the extraction and
        // among the survivors must both stay FIFO.
        let mut seen = Vec::new();
        inbox.extract_if(
            |m| m.arrival_cycle % 2 == 0,
            |m, p| {
                assert_eq!(m.arrival_cycle, p.id);
                seen.push(p.id);
            },
        );
        assert_eq!(seen, vec![0, 2, 4]);
        assert_eq!(inbox.len(), 3);
        // Refills reuse the freed slots.
        let grows = inbox.grows();
        inbox.push(
            InFlightMeta {
                arrival_cycle: 9,
                to_node: 9,
                from_index: 1,
                vc: 1,
            },
            packet(9),
        );
        assert_eq!(inbox.grows(), grows);
        let mut rest = Vec::new();
        inbox.extract_if(|_| true, |_, p| rest.push(p.id));
        assert_eq!(rest, vec![1, 3, 5, 9]);
        assert!(inbox.is_empty());
    }

    #[test]
    fn extract_from_singleton_and_tail_updates() {
        let mut inbox = InFlightPool::new();
        inbox.push(
            InFlightMeta {
                arrival_cycle: 1,
                to_node: 0,
                from_index: 0,
                vc: 0,
            },
            packet(1),
        );
        inbox.extract_if(|_| true, |_, _| {});
        assert!(inbox.is_empty());
        // Tail must be valid again after emptying via extract_if.
        inbox.push(
            InFlightMeta {
                arrival_cycle: 2,
                to_node: 0,
                from_index: 0,
                vc: 0,
            },
            packet(2),
        );
        inbox.push(
            InFlightMeta {
                arrival_cycle: 3,
                to_node: 0,
                from_index: 0,
                vc: 0,
            },
            packet(3),
        );
        let mut ids = Vec::new();
        inbox.extract_if(|_| true, |_, p| ids.push(p.id));
        assert_eq!(ids, vec![2, 3]);
    }
}
