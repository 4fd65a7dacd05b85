//! # appvsweb-netsim
//!
//! Deterministic, event-driven network substrate for the `appvsweb`
//! reproduction of *"Should You Use the App for That?"* (IMC 2016).
//!
//! The original study measured real phones on a real network. This crate
//! replaces that hardware with a discrete-event simulation in the style of
//! smoltcp: no I/O, no wall-clock time, no global state — just values and
//! explicit state machines. Determinism is a design requirement: every
//! experiment in the reproduction must be exactly replayable from a seed.
//!
//! Components:
//!
//! * [`clock`] — simulation time ([`SimTime`], [`SimDuration`])
//! * [`rng`] — a seedable SplitMix64 RNG with labelled forking so
//!   independent subsystems draw from independent streams
//! * [`rng_labels`] — the workspace's closed fork-label table (enforced
//!   by `appvsweb-lint` rule D3)
//! * [`event`] — a deterministic event queue (ties broken by insertion
//!   order, never by hash order)
//! * [`dns`] — a resolver with zones, positive *and negative* caching,
//!   and query accounting
//! * [`faults`] — the deterministic chaos layer: [`FaultPlan`] presets
//!   and the [`FaultInjector`] that rolls packet loss, latency spikes,
//!   resets, link flaps, and DNS failures from a labelled RNG fork
//! * [`pool`] — thread-local wire-buffer pool with a scrub-on-release
//!   law (recycled buffers never leak bytes across cells)
//! * [`tcp`] — per-connection payload byte counters (feed the paper's
//!   Figure 1c)
//! * [`device`] — the simulated phone: OS identity, device identifiers,
//!   GPS fix, background OS services

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod device;
pub mod dns;
pub mod event;
pub mod faults;
pub mod fuzz;
pub mod pool;
pub mod rng;
pub mod rng_labels;
pub mod tcp;

pub use clock::{SimDuration, SimTime};
pub use device::{Device, DeviceIds, Os};
pub use dns::DnsResolver;
pub use event::EventQueue;
pub use faults::{FaultCounts, FaultInjector, FaultKind, FaultPlan};
pub use pool::{PoolStats, PooledBuf};
pub use rng::SimRng;
pub use tcp::ConnectionStats;
