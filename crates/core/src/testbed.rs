//! One test cell's equipment.
//!
//! §3.2: each experiment uses a factory-reset phone connected to Meddle
//! over a VPN tunnel, with the interception CA installed, and a freshly
//! created account whose PII is fully known. [`Testbed::for_cell`]
//! assembles exactly that, deterministically from the experiment seed.

use appvsweb_mitm::Meddle;
use appvsweb_netsim::{rng_labels, Device, Os, SimRng};
use appvsweb_pii::GroundTruth;
use appvsweb_services::{Medium, OriginWorld, ServiceSpec, SessionConfig, SessionRunner};
use appvsweb_tlssim::TrustStore;

/// The equipment for one (service, OS, medium) experiment.
pub struct Testbed {
    /// The origin world (first parties, trackers, exchanges).
    pub world: OriginWorld,
    /// The Meddle tunnel with TLS interception.
    pub meddle: Meddle,
    /// The factory-reset test phone.
    pub device: Device,
    /// The device's trust store: public roots + the proxy CA.
    pub device_trust: TrustStore,
    /// Ground truth for the fresh account + this device.
    pub truth: GroundTruth,
}

impl Testbed {
    /// Assemble a testbed for one cell. Each service gets its own fresh
    /// account ("a previously unused email address"); the same two
    /// phones (one per OS) serve every service, so device identifiers
    /// are stable per OS for a given seed.
    pub fn for_cell(spec: &ServiceSpec, os: Os, seed: u64) -> Self {
        let rng = SimRng::new(seed);
        let world = OriginWorld::new("PublicRoot", rng.fork(rng_labels::WORLD));
        let meddle = Meddle::new(world.public_trust());

        // Install the proxy CA on the device (the methodology step that
        // makes HTTPS interception work).
        let mut device_trust = world.public_trust();
        device_trust.add_root(&meddle.ca().root);

        let mut device_rng = rng.fork(rng_labels::DEVICE);
        let device = Device::factory_reset(os, &mut device_rng);

        // Fresh account per service, same device identity per OS.
        let account_seed = seed ^ fnv(spec.id);
        let ids = device.ids.labelled();
        let truth =
            GroundTruth::synthetic(account_seed).with_device(os.device_model(), &ids, device.gps);

        Testbed {
            world,
            meddle,
            device,
            device_trust,
            truth,
        }
    }

    /// Run one session through this testbed.
    pub fn run_session(
        &mut self,
        spec: &ServiceSpec,
        os: Os,
        medium: Medium,
        cfg: &SessionConfig,
    ) -> appvsweb_mitm::Trace {
        let runner = SessionRunner { spec, os, medium };
        runner.run(
            &mut self.meddle,
            &mut self.world,
            &self.device_trust,
            &self.truth,
            cfg,
        )
    }
}

/// FNV-1a over a str, for deriving per-service account seeds.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use appvsweb_services::Catalog;

    #[test]
    fn testbed_is_deterministic_per_cell() {
        let catalog = Catalog::paper();
        let spec = catalog.get("yelp").unwrap();
        let a = Testbed::for_cell(spec, Os::Android, 2016);
        let b = Testbed::for_cell(spec, Os::Android, 2016);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.device.ids, b.device.ids);
    }

    #[test]
    fn accounts_differ_per_service_but_device_is_shared() {
        let catalog = Catalog::paper();
        let yelp = Testbed::for_cell(catalog.get("yelp").unwrap(), Os::Ios, 2016);
        let grubhub = Testbed::for_cell(catalog.get("grubhub").unwrap(), Os::Ios, 2016);
        assert_ne!(
            yelp.truth.email, grubhub.truth.email,
            "fresh account per service"
        );
        assert_eq!(
            yelp.device.ids, grubhub.device.ids,
            "same phone for every service"
        );
    }

    #[test]
    fn proxy_ca_is_trusted_by_device() {
        let catalog = Catalog::paper();
        let tb = Testbed::for_cell(catalog.get("yelp").unwrap(), Os::Android, 1);
        assert!(tb.device_trust.trusts_key(tb.meddle.ca().root.key));
    }

    #[test]
    fn session_runs_end_to_end() {
        let catalog = Catalog::paper();
        let spec = catalog.get("weather-channel").unwrap();
        let mut tb = Testbed::for_cell(spec, Os::Android, 2016);
        let trace = tb.run_session(spec, Os::Android, Medium::App, &SessionConfig::default());
        assert!(!trace.transactions.is_empty());
    }
}
