//! Ground-truth PII profiles.
//!
//! The experiments are controlled: "we know all the PII that is available
//! on our test devices" (§3.2). A [`GroundTruth`] is that knowledge for
//! one (device, account) pair — the account fields created when signing
//! up for a service, plus the device identifiers and the current GPS fix.

use crate::types::PiiType;
use appvsweb_netsim::SimRng;

/// Everything the testbed knows about the identity used in a session.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroundTruth {
    /// Account first name.
    pub first_name: String,
    /// Account last name.
    pub last_name: String,
    /// E-mail (previously unused, per methodology).
    pub email: String,
    /// Username.
    pub username: String,
    /// Password.
    pub password: String,
    /// Gender as entered at signup (`"F"` / `"M"` plus word forms).
    pub gender: String,
    /// Birthday in ISO form `YYYY-MM-DD`.
    pub birthday: String,
    /// Phone number in `(NXX) NXX-XXXX` display form.
    pub phone: String,
    /// ZIP code.
    pub zip: String,
    /// GPS fix (latitude, longitude), if location is available.
    pub gps: Option<(f64, f64)>,
    /// Device hardware model ("Nexus 5", "iPhone 5").
    pub device_model: String,
    /// Device unique identifiers as `(label, value)` pairs
    /// (imei / mac / ad_id / android_id / vendor_id / serial).
    pub device_ids: Vec<(String, String)>,
}

const FIRST_NAMES: &[&str] = &[
    "Jane", "Alex", "Morgan", "Riley", "Casey", "Jordan", "Taylor", "Avery", "Quinn", "Dana",
];
const LAST_NAMES: &[&str] = &[
    "Conner",
    "Whitfield",
    "Marsh",
    "Delgado",
    "Okafor",
    "Lindgren",
    "Barrett",
    "Soto",
    "Hale",
    "Kovacs",
];
const MAILBOX_ADJECTIVES: &[&str] = &[
    "amber", "cobalt", "crimson", "indigo", "mauve", "ochre", "sable", "teal", "umber", "viridian",
];
const MAILBOX_NOUNS: &[&str] = &[
    "falcon", "harbor", "lantern", "meadow", "orchid", "quartz", "saddle", "thicket", "walnut",
    "zephyr",
];

impl GroundTruth {
    /// Generate a synthetic test account deterministically from `seed`.
    /// Device fields are filled separately with
    /// [`GroundTruth::with_device`].
    pub fn synthetic(seed: u64) -> Self {
        let mut rng = SimRng::new(seed ^ 0x5eed_f00d);
        let first = FIRST_NAMES[rng.below(FIRST_NAMES.len() as u64) as usize].to_string();
        let last = LAST_NAMES[rng.below(LAST_NAMES.len() as u64) as usize].to_string();
        let tag: u32 = rng.range(100, 9998) as u32;
        // Mailbox and username are deliberately unrelated to the name:
        // the methodology needs each ground-truth value to be separately
        // detectable, so one leak must not imply another by substring.
        let adjective = MAILBOX_ADJECTIVES[rng.below(MAILBOX_ADJECTIVES.len() as u64) as usize];
        let noun = MAILBOX_NOUNS[rng.below(MAILBOX_NOUNS.len() as u64) as usize];
        let email = format!("{adjective}.{noun}.{tag}@testmail.example");
        let username = format!("{noun}{adjective}{tag}");
        let password = format!("Tr0ub4dor-{:06}!", rng.below(1_000_000));
        let gender = if rng.chance(0.5) { "F" } else { "M" }.to_string();
        let birthday = format!(
            "{:04}-{:02}-{:02}",
            rng.range(1970, 1997),
            rng.range(1, 12),
            rng.range(1, 28)
        );
        let phone = format!("(617) {:03}-{:04}", rng.range(200, 999), rng.below(10_000));
        let zip = format!("021{:02}", rng.range(8, 39)); // Boston-area ZIPs
        GroundTruth {
            first_name: first,
            last_name: last,
            email,
            username,
            password,
            gender,
            birthday,
            phone,
            zip,
            gps: None,
            device_model: String::new(),
            device_ids: vec![],
        }
    }

    /// Attach device facts (builder style).
    pub fn with_device(
        mut self,
        model: &str,
        ids: &[(&str, &str)],
        gps: Option<(f64, f64)>,
    ) -> Self {
        self.device_model = model.to_string();
        self.device_ids = ids
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self.gps = gps;
        self
    }

    /// Full name, as entered into profile forms.
    pub fn full_name(&self) -> String {
        format!("{} {}", self.first_name, self.last_name)
    }

    /// GPS coordinates rendered at a given decimal precision — services
    /// transmit "arbitrary precision", so the matcher needs variants.
    pub fn gps_at_precision(&self, decimals: usize) -> Option<(String, String)> {
        self.gps
            .map(|(lat, lon)| (format!("{lat:.decimals$}"), format!("{lon:.decimals$}")))
    }

    /// Every known value, labelled with its PII type. Multi-valued types
    /// yield several entries (first + last + full name; lat + lon + zip;
    /// one entry per device identifier). Account values come first, then
    /// device values.
    pub fn values(&self) -> Vec<(PiiType, String)> {
        let mut out = self.half_values(Half::Account);
        out.extend(self.half_values(Half::Device));
        out
    }

    /// The values of one [`Half`], in [`GroundTruth::values`] order.
    pub fn half_values(&self, half: Half) -> Vec<(PiiType, String)> {
        match half {
            Half::Account => vec![
                (PiiType::Name, self.first_name.clone()),
                (PiiType::Name, self.last_name.clone()),
                (PiiType::Name, self.full_name()),
                (PiiType::Email, self.email.clone()),
                (PiiType::Username, self.username.clone()),
                (PiiType::Password, self.password.clone()),
                (PiiType::Gender, self.gender.clone()),
                (PiiType::Birthday, self.birthday.clone()),
                (PiiType::PhoneNumber, self.phone.clone()),
                (PiiType::Location, self.zip.clone()),
            ],
            Half::Device => {
                let mut out = Vec::new();
                if let Some((lat, lon)) = self.gps_at_precision(6) {
                    out.push((PiiType::Location, lat));
                    out.push((PiiType::Location, lon));
                }
                if !self.device_model.is_empty() {
                    out.push((PiiType::DeviceInfo, self.device_model.clone()));
                }
                for (_, v) in &self.device_ids {
                    out.push((PiiType::UniqueId, v.clone()));
                }
                out
            }
        }
    }

    /// The truth with every field outside `half` cleared: two truths
    /// with equal halves compile to equal dictionary layers.
    pub(crate) fn half(&self, half: Half) -> GroundTruth {
        match half {
            Half::Account => GroundTruth {
                gps: None,
                device_model: String::new(),
                device_ids: Vec::new(),
                ..self.clone()
            },
            Half::Device => GroundTruth {
                gps: self.gps,
                device_model: self.device_model.clone(),
                device_ids: self.device_ids.clone(),
                ..GroundTruth::default()
            },
        }
    }
}

/// The two independent halves of a [`GroundTruth`]. The testbed gives
/// every service a fresh account but reuses one device per OS, so a
/// study's identities share a handful of device halves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Half {
    /// Name, e-mail, username, password, gender, birthday, phone, ZIP.
    Account,
    /// GPS fix, hardware model and device identifiers.
    Device,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        assert_eq!(GroundTruth::synthetic(7), GroundTruth::synthetic(7));
        assert_ne!(
            GroundTruth::synthetic(7).email,
            GroundTruth::synthetic(8).email
        );
    }

    #[test]
    fn formats_look_plausible() {
        let gt = GroundTruth::synthetic(42);
        assert!(gt.email.contains('@'));
        assert_eq!(gt.birthday.len(), 10);
        assert!(gt.phone.starts_with("(617)"));
        assert_eq!(gt.zip.len(), 5);
        assert!(gt.zip.starts_with("021"));
        assert!(matches!(gt.gender.as_str(), "F" | "M"));
    }

    #[test]
    fn device_attachment_and_values() {
        let gt = GroundTruth::synthetic(1).with_device(
            "Nexus 5",
            &[("imei", "123456789012345"), ("ad_id", "aaaa-bbbb")],
            Some((42.360123, -71.058456)),
        );
        let values = gt.values();
        let uids: Vec<_> = values
            .iter()
            .filter(|(t, _)| *t == PiiType::UniqueId)
            .collect();
        assert_eq!(uids.len(), 2);
        assert!(values
            .iter()
            .any(|(t, v)| *t == PiiType::DeviceInfo && v == "Nexus 5"));
        let locs: Vec<_> = values
            .iter()
            .filter(|(t, _)| *t == PiiType::Location)
            .collect();
        assert_eq!(locs.len(), 3, "zip + lat + lon");
    }

    #[test]
    fn halves_partition_the_values() {
        let gt = GroundTruth::synthetic(3).with_device(
            "Nexus 5",
            &[("imei", "123456789012345")],
            Some((42.360123, -71.058456)),
        );
        let mut joined = gt.half_values(Half::Account);
        joined.extend(gt.half_values(Half::Device));
        assert_eq!(joined, gt.values());
        // Each half keeps exactly its own fields.
        for half in [Half::Account, Half::Device] {
            assert_eq!(gt.half(half).half_values(half), gt.half_values(half));
        }
        assert!(gt.half(Half::Account).half_values(Half::Device).is_empty());
        assert_eq!(gt.half(Half::Device).email, "");
    }

    #[test]
    fn gps_precision_variants() {
        let gt = GroundTruth::synthetic(1).with_device("x", &[], Some((42.361145, -71.057083)));
        let (lat2, lon2) = gt.gps_at_precision(2).unwrap();
        assert_eq!(lat2, "42.36");
        assert_eq!(lon2, "-71.06");
        let (lat6, _) = gt.gps_at_precision(6).unwrap();
        assert_eq!(lat6, "42.361145");
        assert!(GroundTruth::synthetic(1).gps_at_precision(2).is_none());
    }
}

appvsweb_json::impl_json!(struct GroundTruth {
    first_name, last_name, email, username, password, gender, birthday, phone, zip, gps,
    device_model, device_ids
});
