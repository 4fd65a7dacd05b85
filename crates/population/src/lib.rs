#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Population-scale campaigns over the app-vs-web study.
//!
//! The base study measures each `(service, OS, medium)` cell once. This
//! crate scales that to 10k–1M simulated users in constant memory:
//!
//! * [`model`] — deterministic per-user models (PII profile,
//!   installed-app mix, usage habits, device churn), each a pure
//!   function of `(campaign seed, user_id)` via stable
//!   `rng_labels::population_user` fork labels.
//! * [`campaign`] — sharded ingestion into mergeable
//!   [`appvsweb_analysis::PopulationAggregate`] states, folded through
//!   a fixed pairwise reduction tree on a work-stealing scheduler so 1,
//!   2, or 8 workers produce byte-identical reports.
//! * [`fuzz`] — the `population` fuzz target: sketch/report codec
//!   fixed points and merge-law totality on arbitrary bytes.

pub mod campaign;
pub mod fuzz;
pub mod model;

pub use campaign::{run_campaign_on, CampaignConfig};
pub use model::{ServiceUse, Universe, UserModel};
