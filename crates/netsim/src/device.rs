//! The simulated test phone.
//!
//! The study used two Nexus phones on stock Android 4.4 and two iPhone 5s
//! on iOS 9.3.1, factory-reset before the experiments (§3.2). A
//! [`Device`] models exactly what that hardware contributes to the
//! pipeline: an OS identity (which determines the browser), a set of
//! device-specific identifiers, a GPS fix, and the OS background
//! services whose traffic the methodology filters out. Which of the
//! identifiers an app or page actually sends is decided in one place,
//! `services::session::pii_params`, per OS and medium.

use crate::rng::SimRng;
use std::fmt;

/// Mobile operating system under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Os {
    /// Stock Android 4.4 (the most common version in-the-wild, April 2016).
    Android,
    /// iOS 9.3.1.
    Ios,
}

impl Os {
    /// Browser User-Agent string for the Web arm.
    pub fn browser_user_agent(self) -> &'static str {
        match self {
            Os::Android => {
                "Mozilla/5.0 (Linux; Android 4.4.4; Nexus 5 Build/KTU84P) AppleWebKit/537.36 \
                 (KHTML, like Gecko) Chrome/49.0.2623.105 Mobile Safari/537.36"
            }
            Os::Ios => {
                "Mozilla/5.0 (iPhone; CPU iPhone OS 9_3_1 like Mac OS X) AppleWebKit/601.1.46 \
                 (KHTML, like Gecko) Version/9.0 Mobile/13E238 Safari/601.1"
            }
        }
    }

    /// Hardware model name (itself a leaked identifier: "Device Name" in
    /// Table 1/3 of the paper).
    pub fn device_model(self) -> &'static str {
        match self {
            Os::Android => "Nexus 5",
            Os::Ios => "iPhone 5",
        }
    }

    /// Hostnames of OS background services whose flows the methodology
    /// filters out of every trace (§3.2 "Filtering").
    pub fn background_hosts(self) -> &'static [&'static str] {
        match self {
            Os::Android => &[
                "play.googleapis.com",
                "android.clients.google.com",
                "mtalk.google.com",
                "connectivitycheck.gstatic.com",
            ],
            Os::Ios => &[
                "icloud.com",
                "gsp-ssl.ls.apple.com",
                "push.apple.com",
                "captive.apple.com",
            ],
        }
    }
}

impl fmt::Display for Os {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Os::Android => "Android",
            Os::Ios => "iOS",
        })
    }
}

/// Device-specific identifiers. Which of these a session may send is
/// decided by `services::session::pii_params` per OS and medium; a
/// mobile browser can read none of them — the root of the paper's
/// finding that only apps leak unique device identifiers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceIds {
    /// IMEI (Android): 15 decimal digits.
    pub imei: String,
    /// Wi-Fi MAC address.
    pub mac: String,
    /// Android ID (64-bit hex) — Android only.
    pub android_id: String,
    /// Advertising identifier (GAID on Android, IDFA on iOS): UUID.
    pub ad_id: String,
    /// Vendor identifier (IDFV) — iOS only.
    pub vendor_id: String,
    /// Hardware serial number.
    pub serial: String,
}

impl DeviceIds {
    /// Generate a deterministic identifier set from a labelled RNG fork.
    pub fn generate(rng: &mut SimRng) -> Self {
        DeviceIds {
            imei: gen_digits(rng, 15),
            mac: gen_mac(rng),
            android_id: gen_hex(rng, 16),
            ad_id: gen_uuid(rng),
            vendor_id: gen_uuid(rng),
            serial: gen_hex(rng, 12).to_uppercase(),
        }
    }

    /// All identifier values as `(label, value)` pairs — the ground-truth
    /// seed for the PII matcher.
    pub fn labelled(&self) -> Vec<(&'static str, &str)> {
        vec![
            ("imei", &self.imei),
            ("mac", &self.mac),
            ("android_id", &self.android_id),
            ("ad_id", &self.ad_id),
            ("vendor_id", &self.vendor_id),
            ("serial", &self.serial),
        ]
    }
}

fn gen_digits(rng: &mut SimRng, n: usize) -> String {
    (0..n)
        .map(|_| char::from(b'0' + rng.below(10) as u8))
        .collect()
}

fn gen_hex(rng: &mut SimRng, n: usize) -> String {
    (0..n)
        .map(|_| char::from_digit(rng.below(16) as u32, 16).unwrap_or('0'))
        .collect()
}

fn gen_mac(rng: &mut SimRng) -> String {
    (0..6)
        .map(|_| format!("{:02x}", rng.below(256)))
        .collect::<Vec<_>>()
        .join(":")
}

fn gen_uuid(rng: &mut SimRng) -> String {
    format!(
        "{}-{}-{}-{}-{}",
        gen_hex(rng, 8),
        gen_hex(rng, 4),
        gen_hex(rng, 4),
        gen_hex(rng, 4),
        gen_hex(rng, 12)
    )
}

/// A simulated, factory-reset test phone.
#[derive(Clone, Debug, PartialEq)]
pub struct Device {
    /// Operating system.
    pub os: Os,
    /// Device identifiers.
    pub ids: DeviceIds,
    /// Current GPS fix (latitude, longitude), if location services are on.
    pub gps: Option<(f64, f64)>,
}

impl Device {
    /// A factory-reset device: fresh identifiers, GPS fix present (the
    /// testers ran with location on, in Boston).
    pub fn factory_reset(os: Os, rng: &mut SimRng) -> Self {
        let mut id_rng = rng.fork(&crate::rng_labels::device_ids(os));
        Device {
            os,
            ids: DeviceIds::generate(&mut id_rng),
            gps: Some(boston_fix(&mut rng.fork(crate::rng_labels::GPS))),
        }
    }
}

/// A deterministic fix inside the Boston metro area (the study's tests ran
/// "in the Boston area between March 23 and May 11, 2016").
fn boston_fix(rng: &mut SimRng) -> (f64, f64) {
    let lat = 42.30 + rng.unit() * 0.12; // 42.30..42.42
    let lon = -71.15 + rng.unit() * 0.12; // -71.15..-71.03
                                          // Quantize to 6 decimal places like a real GPS reading.
    ((lat * 1e6).round() / 1e6, (lon * 1e6).round() / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(os: Os) -> Device {
        Device::factory_reset(os, &mut SimRng::new(2016))
    }

    #[test]
    fn factory_reset_is_deterministic() {
        assert_eq!(device(Os::Android), device(Os::Android));
        assert_ne!(device(Os::Android).ids, device(Os::Ios).ids);
    }

    #[test]
    fn identifier_formats() {
        let d = device(Os::Android);
        assert_eq!(d.ids.imei.len(), 15);
        assert!(d.ids.imei.chars().all(|c| c.is_ascii_digit()));
        assert_eq!(d.ids.mac.split(':').count(), 6);
        assert_eq!(d.ids.android_id.len(), 16);
        assert_eq!(d.ids.ad_id.split('-').count(), 5);
        let (lat, lon) = d.gps.unwrap();
        assert!((42.0..43.0).contains(&lat));
        assert!((-72.0..-71.0).contains(&lon));
    }

    #[test]
    fn browser_identity_per_os() {
        assert!(Os::Android.browser_user_agent().contains("Chrome"));
        assert!(Os::Ios.browser_user_agent().contains("Safari"));
        assert!(!Os::Ios.background_hosts().is_empty());
    }
}

appvsweb_json::impl_json!(
    enum Os {
        Android,
        Ios,
    }
);
appvsweb_json::impl_json!(struct DeviceIds { imei, mac, android_id, ad_id, vendor_id, serial });
appvsweb_json::impl_json!(struct Device { os, ids, gps });
