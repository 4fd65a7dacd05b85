//! # appvsweb-services
//!
//! The synthetic world of online services for the `appvsweb` reproduction
//! of *"Should You Use the App for That?"* (IMC 2016).
//!
//! The original study manually tested the iOS-app, Android-app, and
//! mobile-Web versions of **50 live services**. Live 2016 services are
//! gone, so this crate rebuilds them as *behaviour models*: each
//! [`catalog::ServiceSpec`] describes a service's first-party domains,
//! login requirements, embedded tracker SDKs (app) and ad tags + RTB
//! chains (Web), and which PII each side transmits where. The
//! [`session`] module turns a spec into four minutes of simulated
//! interaction traffic through the Meddle tunnel, and [`world`]
//! implements every origin server (first parties, tracker endpoints, ad
//! exchanges) the traffic talks to.
//!
//! **Calibration.** Every concrete fact the paper states is encoded in
//! the catalog: the named services (The Weather Channel, Yelp, BBC News,
//! Accuweather, Starbucks, Grubhub, JetBlue, Priceline, The Food Network,
//! NCAA Sports, All Recipes Dinner Spinner, CNN), the password
//! case studies of §4.2 (Grubhub→taplytics, JetBlue→usablenet, Food
//! Network / NCAA→Gigya), the category composition of Table 1, the
//! exclusion of pinned services (Facebook, Twitter) and of services
//! without equivalent Web functionality (Instagram, Pandora), and the
//! A&A domains of Table 2. Services the paper does not name are filled
//! in with category-typical behaviour. The quantitative *shapes* of the
//! paper's figures emerge from these behaviours rather than being
//! hard-coded: Web pages pull tens of A&A domains and open far more
//! connections; apps embed one or two SDKs that receive device
//! identifiers no Web page can read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod session;
pub mod trackers;
pub mod world;

pub use catalog::{Catalog, Medium, ServiceCategory, ServiceSpec};
pub use session::{RetryPolicy, SessionConfig, SessionRunner};
pub use trackers::{PayloadStyle, TrackerSpec};
pub use world::{Filler, OriginWorld};
