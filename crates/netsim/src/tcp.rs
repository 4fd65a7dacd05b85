//! Per-connection payload byte counters.
//!
//! The paper's Figure 1c sums the bytes each connection carries to A&A
//! domains. [`ConnectionStats`] is that per-connection tally: payload
//! bytes in each direction, TLS record overhead included, as the capture
//! layer (`mitm::ConnectionRecord`) adds them. Who a connection talks to
//! and when it opened or closed is that record's business. Packets,
//! segments, handshakes and retransmissions are not modelled: no table,
//! figure or report reads them.

/// Payload byte counters for one connection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Application bytes sent client→server.
    pub bytes_up: u64,
    /// Application bytes sent server→client.
    pub bytes_down: u64,
}

impl ConnectionStats {
    /// Send `bytes` of application payload client→server.
    pub fn send(&mut self, bytes: usize) {
        appvsweb_obs::counter!("netsim.conn.bytes_up", bytes);
        self.bytes_up += bytes as u64;
    }

    /// Send `bytes` of application payload server→client.
    pub fn receive(&mut self, bytes: usize) {
        appvsweb_obs::counter!("netsim.conn.bytes_down", bytes);
        self.bytes_down += bytes as u64;
    }

    /// Total application payload bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_receive_accounting() {
        let mut c = ConnectionStats::default();
        c.send(3000);
        c.receive(5840);
        assert_eq!(c.bytes_up, 3000);
        assert_eq!(c.bytes_down, 5840);
        assert_eq!(c.total_bytes(), 8840);
    }
}

appvsweb_json::impl_json!(struct ConnectionStats { bytes_up, bytes_down });
