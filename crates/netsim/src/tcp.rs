//! TCP connection accounting.
//!
//! The paper's Figure 1b counts *TCP connections* ("flows") to A&A
//! domains and finds Web versions of services open hundreds to thousands
//! more than apps. We therefore model each connection's traffic
//! explicitly: a 3-way handshake, MSS-sized segments, per-direction
//! byte/packet counters, and a FIN close, all kept in one
//! [`ConnectionStats`]. Who a connection talks to and when it opened or
//! closed is the capture layer's record (`mitm::ConnectionRecord`), which
//! owns the counters. No retransmission or congestion control is
//! modelled — loss-free links make the accounting deterministic, and the
//! study's metrics never depended on loss behaviour.

/// Maximum segment size (typical 1460-byte Ethernet MSS).
pub const MSS: usize = 1460;

/// Bytes of TCP/IP header overhead per segment (IPv4 20 + TCP 20).
pub const HEADER_OVERHEAD: usize = 40;

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
    /// The counters of a freshly opened connection: the 3-way handshake
    /// (SYN, SYN-ACK, ACK) happens "now".
    pub fn opened() -> Self {
        ConnectionStats {
            bytes_up: 0,
            bytes_down: 0,
            packets_up: 2,   // SYN + final ACK
            packets_down: 1, // SYN-ACK
        }
    }

    /// Send `bytes` of application payload client→server.
    pub fn send(&mut self, bytes: usize) {
        appvsweb_obs::counter!("netsim.conn.bytes_up", bytes);
        self.bytes_up += bytes as u64;
        self.packets_up += segments_for(bytes);
        // Pure ACKs from the receiver (one per two segments, delayed-ACK).
        self.packets_down += segments_for(bytes).div_ceil(2);
    }

    /// Send `bytes` of application payload server→client.
    pub fn receive(&mut self, bytes: usize) {
        appvsweb_obs::counter!("netsim.conn.bytes_down", bytes);
        self.bytes_down += bytes as u64;
        self.packets_down += segments_for(bytes);
        self.packets_up += segments_for(bytes).div_ceil(2);
    }

    /// Close the connection (FIN/ACK in both directions). The caller
    /// closes each connection once and sends nothing after.
    pub fn close(&mut self) {
        self.packets_up += 2;
        self.packets_down += 2;
    }

    /// Total application payload bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }

    /// Total wire bytes including per-segment header overhead.
    pub fn wire_bytes(&self) -> u64 {
        self.total_bytes() + (self.packets_up + self.packets_down) * HEADER_OVERHEAD as u64
    }
}

/// Number of MSS-sized segments needed for `bytes` of payload, rounded
/// up. Zero bytes costs zero segments: a headers-only PSH/ACK is not
/// modelled.
pub fn segments_for(bytes: usize) -> u64 {
    (bytes.div_ceil(MSS)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_counts_three_packets() {
        let c = ConnectionStats::opened();
        assert_eq!(c.packets_up + c.packets_down, 3);
        assert_eq!(c.total_bytes(), 0);
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
        let mut c = ConnectionStats::opened();
        c.send(3000); // 3 segments up
        c.receive(MSS * 4); // 4 segments down
        assert_eq!(c.bytes_up, 3000);
        assert_eq!(c.bytes_down, (MSS * 4) as u64);
        // up: handshake 2 + 3 data + 2 acks for the 4 down-segments
        assert_eq!(c.packets_up, 2 + 3 + 2);
        // down: handshake 1 + acks for 3 up-segments (2) + 4 data
        assert_eq!(c.packets_down, 1 + 2 + 4);
        assert!(c.wire_bytes() > c.total_bytes());
    }

    #[test]
    fn close_counts_the_fin_exchange() {
        let mut c = ConnectionStats::opened();
        c.send(10);
        let before = c;
        c.close();
        assert_eq!(c.packets_up, before.packets_up + 2);
        assert_eq!(c.packets_down, before.packets_down + 2);
        assert_eq!(c.total_bytes(), before.total_bytes());
    }
}

appvsweb_json::impl_json!(struct ConnectionStats { bytes_up, bytes_down, packets_up, packets_down });
