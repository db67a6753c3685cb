//! Packets and traffic descriptors used by the cycle-level simulator.

use serde::{Deserialize, Serialize};
use sf_types::{NodeId, VirtualChannelId};

/// What a packet carries, which determines its size and whether the memory
/// node generates a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// A read request travelling towards a memory node (header only).
    ReadRequest,
    /// A read reply carrying one cache line back to the requester.
    ReadReply,
    /// A write request carrying one cache line towards a memory node.
    WriteRequest,
    /// A write acknowledgement (header only).
    WriteAck,
    /// A synthetic traffic-pattern packet (one cache line, no reply).
    Synthetic,
}

impl PacketKind {
    /// The reply kind generated by the memory node for this packet, if any.
    #[must_use]
    pub fn reply_kind(self) -> Option<Self> {
        match self {
            Self::ReadRequest => Some(Self::ReadReply),
            Self::WriteRequest => Some(Self::WriteAck),
            _ => None,
        }
    }

    /// Size of the packet in bits given the cache-line payload size: header
    /// only (16 bytes) for requests/acks, header plus payload for packets that
    /// carry data.
    #[must_use]
    pub fn size_bits(self, cacheline_bytes: usize) -> u64 {
        const HEADER_BYTES: u64 = 16;
        let payload = match self {
            Self::ReadRequest | Self::WriteAck => 0,
            Self::ReadReply | Self::WriteRequest | Self::Synthetic => cacheline_bytes as u64,
        };
        (HEADER_BYTES + payload) * 8
    }
}

/// A packet travelling through the memory network.
///
/// `Copy` is deliberate: the kernel stores packets in dense slab pools
/// ([`crate::pool`]) and moves them between queues by value, so the type must
/// stay a plain-old-data record with no drop glue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique packet id (monotonically increasing injection order).
    pub id: u64,
    /// The node that injected the packet.
    pub source: NodeId,
    /// The node the packet is travelling to.
    pub destination: NodeId,
    /// Packet kind (request, reply, synthetic, ...).
    pub kind: PacketKind,
    /// Cycle at which the packet was injected into the network.
    pub injected_at: u64,
    /// Cycle at which the original request behind this packet was issued
    /// (used for round-trip latency of replies; equals `injected_at` for
    /// requests and synthetic traffic).
    pub request_issued_at: u64,
    /// Number of links traversed so far.
    pub hops: u32,
    /// Virtual channel currently occupied.
    pub virtual_channel: VirtualChannelId,
}

/// A memory request produced by a traffic model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficRequest {
    /// Destination memory node.
    pub destination: NodeId,
    /// Whether the access is a write (`true`) or a read (`false`).
    pub write: bool,
}

impl TrafficRequest {
    /// Convenience constructor for a read request.
    #[must_use]
    pub fn read(destination: NodeId) -> Self {
        Self {
            destination,
            write: false,
        }
    }

    /// Convenience constructor for a write request.
    #[must_use]
    pub fn write(destination: NodeId) -> Self {
        Self {
            destination,
            write: true,
        }
    }
}

/// Source of injected traffic: the simulator asks every active node once per
/// cycle whether it wants to inject a packet.
pub trait TrafficModel {
    /// Possibly inject a request from `source` at `cycle`.
    fn maybe_inject(&mut self, cycle: u64, source: NodeId) -> Option<TrafficRequest>;

    /// Whether the traffic model has no more requests to offer. The kernel
    /// never consults it: a run always injects until `max_cycles` and then
    /// drains without traffic.
    fn is_exhausted(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_sizes() {
        assert_eq!(PacketKind::ReadRequest.size_bits(64), 16 * 8);
        assert_eq!(PacketKind::ReadReply.size_bits(64), 80 * 8);
        assert_eq!(PacketKind::WriteRequest.size_bits(64), 80 * 8);
        assert_eq!(PacketKind::WriteAck.size_bits(64), 16 * 8);
        assert_eq!(PacketKind::Synthetic.size_bits(64), 80 * 8);
    }

    #[test]
    fn reply_kinds() {
        assert_eq!(
            PacketKind::ReadRequest.reply_kind(),
            Some(PacketKind::ReadReply)
        );
        assert_eq!(
            PacketKind::WriteRequest.reply_kind(),
            Some(PacketKind::WriteAck)
        );
        assert_eq!(PacketKind::ReadReply.reply_kind(), None);
        assert_eq!(PacketKind::Synthetic.reply_kind(), None);
    }

    #[test]
    fn traffic_request_constructors() {
        let r = TrafficRequest::read(NodeId::new(3));
        assert!(!r.write);
        assert_eq!(r.destination, NodeId::new(3));
        let w = TrafficRequest::write(NodeId::new(5));
        assert!(w.write);
    }
}
