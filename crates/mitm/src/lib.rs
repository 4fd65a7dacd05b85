//! # appvsweb-mitm
//!
//! The measurement testbed: a reproduction of **Meddle** (VPN-based
//! traffic interposition) combined with **mitmproxy** (TLS interception),
//! which is how the original study captured "both HTTP and the plaintext
//! content of HTTPS flows" (§3.2).
//!
//! The device routes every connection through a [`Meddle`] tunnel. For
//! HTTPS, the tunnel forges a leaf certificate under its own CA (which the
//! test device trusts, because the methodology installs it) and performs
//! two handshakes — one facing the device, one facing the real origin.
//! Services that pin their certificates defeat this, fail the device-side
//! handshake, and show up as undecrypted connections; that is precisely
//! why Facebook and Twitter were excluded from the paper's service set.
//!
//! Capture output is a [`Trace`]: per-TCP-connection records (feeding the
//! paper's flow and byte counts, Figures 1b/1c) and per-HTTP-transaction
//! records (feeding PII detection). [`filter::strip_background`]
//! implements the §3.2 filtering step that removes OS-service traffic
//! (Google Play Services, iCloud, …) from the trace, and [`har::to_har`]
//! exports captures as standard HAR 1.2 for external tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod flow;
pub mod har;
pub mod proxy;

pub use flow::{ConnectionRecord, HttpTransaction, Trace};
pub use proxy::{ExchangeError, ExchangeFailed, Meddle, MeddleConfig, OriginServer, ReusePolicy};
