//! TCP connection accounting.
//!
//! The paper's Figure 1b counts *TCP connections* ("flows") to A&A
//! domains and finds Web versions of services open hundreds to thousands
//! more than apps. We therefore model connections explicitly: each one
//! has a 3-way handshake, MSS-sized segments, per-direction byte/packet
//! counters, and a FIN close. No retransmission or congestion control is
//! modelled — loss-free links make the accounting deterministic, and the
//! study's metrics never depended on loss behaviour.

use crate::clock::SimTime;
use std::fmt;
use std::net::Ipv4Addr;

/// Maximum segment size (typical 1460-byte Ethernet MSS).
pub const MSS: usize = 1460;

/// Bytes of TCP/IP header overhead per segment (IPv4 20 + TCP 20).
pub const HEADER_OVERHEAD: usize = 40;

/// One endpoint of a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: Ipv4Addr,
    /// TCP port.
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    pub fn new(addr: Ipv4Addr, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// Connection lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Handshake done, data may flow.
    Established,
    /// FINs exchanged; no more data permitted.
    Closed,
}

/// Byte/packet counters for one connection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Application bytes sent client→server.
    pub bytes_up: u64,
    /// Application bytes sent server→client.
    pub bytes_down: u64,
    /// Packets sent client→server (incl. handshake/teardown and headers).
    pub packets_up: u64,
    /// Packets sent server→client.
    pub packets_down: u64,
}

impl ConnectionStats {
    /// Total application payload bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }

    /// Total wire bytes including per-segment header overhead.
    pub fn wire_bytes(&self) -> u64 {
        self.total_bytes() + (self.packets_up + self.packets_down) * HEADER_OVERHEAD as u64
    }
}

/// A TCP connection between a client and a server endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Connection {
    /// Monotonic connection id (assigned by the caller / capture layer).
    pub id: u64,
    /// Client side.
    pub client: Endpoint,
    /// Server side.
    pub server: Endpoint,
    /// When the SYN was sent.
    pub opened_at: SimTime,
    /// When the connection closed, if it has.
    pub closed_at: Option<SimTime>,
    /// Current state.
    pub state: ConnState,
    /// Counters.
    pub stats: ConnectionStats,
}

impl Connection {
    /// Open a connection (the 3-way handshake happens "now": SYN,
    /// SYN-ACK, ACK are counted in the packet totals).
    pub fn open(id: u64, client: Endpoint, server: Endpoint, now: SimTime) -> Self {
        Connection {
            id,
            client,
            server,
            opened_at: now,
            closed_at: None,
            state: ConnState::Established,
            stats: ConnectionStats {
                bytes_up: 0,
                bytes_down: 0,
                packets_up: 2,   // SYN + final ACK
                packets_down: 1, // SYN-ACK
            },
        }
    }

    /// Send `bytes` of application payload client→server.
    ///
    /// # Panics
    /// Panics if the connection is closed — sending on a closed
    /// connection is a simulation bug, not a recoverable condition.
    pub fn send(&mut self, bytes: usize) {
        assert_eq!(
            self.state,
            ConnState::Established,
            "send on closed connection"
        );
        appvsweb_obs::counter!("netsim.conn.bytes_up", bytes);
        self.stats.bytes_up += bytes as u64;
        self.stats.packets_up += segments_for(bytes);
        // Pure ACKs from the receiver (one per two segments, delayed-ACK).
        self.stats.packets_down += segments_for(bytes).div_ceil(2);
    }

    /// Send `bytes` of application payload server→client.
    ///
    /// # Panics
    /// Panics if the connection is closed.
    pub fn receive(&mut self, bytes: usize) {
        assert_eq!(
            self.state,
            ConnState::Established,
            "receive on closed connection"
        );
        appvsweb_obs::counter!("netsim.conn.bytes_down", bytes);
        self.stats.bytes_down += bytes as u64;
        self.stats.packets_down += segments_for(bytes);
        self.stats.packets_up += segments_for(bytes).div_ceil(2);
    }

    /// Close the connection (FIN/ACK in both directions). Idempotent.
    pub fn close(&mut self, now: SimTime) {
        if self.state == ConnState::Closed {
            return;
        }
        self.state = ConnState::Closed;
        self.closed_at = Some(now);
        self.stats.packets_up += 2;
        self.stats.packets_down += 2;
    }
}

/// Number of MSS-sized segments needed for `bytes` of payload.
/// Zero bytes still costs one segment (e.g. an empty POST still pushes a
/// PSH/ACK with headers only is *not* modelled; zero means zero).
pub fn segments_for(bytes: usize) -> u64 {
    (bytes.div_ceil(MSS)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn() -> Connection {
        Connection::open(
            1,
            Endpoint::new(Ipv4Addr::new(192, 168, 1, 2), 49152),
            Endpoint::new(Ipv4Addr::new(10, 1, 2, 3), 443),
            SimTime(0),
        )
    }

    #[test]
    fn handshake_counts_three_packets() {
        let c = conn();
        assert_eq!(c.stats.packets_up + c.stats.packets_down, 3);
        assert_eq!(c.stats.total_bytes(), 0);
        assert_eq!(c.state, ConnState::Established);
    }

    #[test]
    fn segmentation_math() {
        assert_eq!(segments_for(0), 0);
        assert_eq!(segments_for(1), 1);
        assert_eq!(segments_for(MSS), 1);
        assert_eq!(segments_for(MSS + 1), 2);
        assert_eq!(segments_for(10 * MSS), 10);
    }

    #[test]
    fn send_receive_accounting() {
        let mut c = conn();
        c.send(3000); // 3 segments up
        c.receive(MSS * 4); // 4 segments down
        assert_eq!(c.stats.bytes_up, 3000);
        assert_eq!(c.stats.bytes_down, (MSS * 4) as u64);
        // up: handshake 2 + 3 data + 2 acks for the 4 down-segments
        assert_eq!(c.stats.packets_up, 2 + 3 + 2);
        // down: handshake 1 + acks for 3 up-segments (2) + 4 data
        assert_eq!(c.stats.packets_down, 1 + 2 + 4);
        assert!(c.stats.wire_bytes() > c.stats.total_bytes());
    }

    #[test]
    fn close_is_idempotent_and_final() {
        let mut c = conn();
        c.close(SimTime(100));
        let packets = c.stats.packets_up + c.stats.packets_down;
        c.close(SimTime(200));
        assert_eq!(c.stats.packets_up + c.stats.packets_down, packets);
        assert_eq!(c.closed_at, Some(SimTime(100)));
        assert_eq!(c.state, ConnState::Closed);
    }

    #[test]
    #[should_panic(expected = "closed connection")]
    fn send_after_close_panics() {
        let mut c = conn();
        c.close(SimTime(1));
        c.send(10);
    }
}

appvsweb_json::impl_json!(struct Endpoint { addr, port });
appvsweb_json::impl_json!(
    enum ConnState {
        Established,
        Closed,
    }
);
appvsweb_json::impl_json!(struct ConnectionStats { bytes_up, bytes_down, packets_up, packets_down });
appvsweb_json::impl_json!(struct Connection { id, client, server, opened_at, closed_at, state, stats });
