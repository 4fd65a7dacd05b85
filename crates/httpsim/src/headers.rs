//! Ordered, case-insensitive HTTP header map.
//!
//! Header insertion order is preserved because the PII detector tokenizes
//! whole messages; matching mitmproxy, we never reorder what a client sent.

use std::borrow::Cow;
use std::fmt;

/// A header name or value: borrowed for the `'static` text builders
/// write (`"Content-Type"`, `"gzip"`), owned for text computed per
/// message or parsed off the wire. Both read the same.
pub type HeaderText = Cow<'static, str>;

/// An ordered multimap of HTTP headers with case-insensitive lookup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Vec<(HeaderText, HeaderText)>,
}

impl HeaderMap {
    /// Create an empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header, preserving any existing values of the same name.
    pub fn append(&mut self, name: impl Into<HeaderText>, value: impl Into<HeaderText>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Set a header, replacing all existing values of the same name.
    /// The new value takes the position of the first replaced entry, or is
    /// appended if the header was absent.
    pub fn set(&mut self, name: impl Into<HeaderText>, value: impl Into<HeaderText>) {
        let name = name.into();
        let value = value.into();
        let Some(first) = self
            .entries
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(&name))
        else {
            self.entries.push((name, value));
            return;
        };
        self.entries[first] = (name, value);
        let mut i = first + 1;
        while i < self.entries.len() {
            if self.entries[i]
                .0
                .eq_ignore_ascii_case(&self.entries[first].0)
            {
                self.entries.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// First value for `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_ref())
    }

    /// All values for `name`, in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_ref())
    }

    /// Whether `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Remove all values for `name`; returns whether anything was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.entries.len() != before
    }

    /// Iterate all `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_ref(), v.as_ref()))
    }

    /// Number of header entries (counting duplicates).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, v) in &self.entries {
            writeln!(f, "{n}: {v}")?;
        }
        Ok(())
    }
}

impl<N: Into<HeaderText>, V: Into<HeaderText>> FromIterator<(N, V)> for HeaderMap {
    fn from_iter<T: IntoIterator<Item = (N, V)>>(iter: T) -> Self {
        HeaderMap {
            entries: iter
                .into_iter()
                .map(|(n, v)| (n.into(), v.into()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_get() {
        let mut h = HeaderMap::new();
        h.append("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
        assert!(!h.contains("x-missing"));
    }

    #[test]
    fn append_preserves_duplicates_in_order() {
        let mut h = HeaderMap::new();
        h.append("Set-Cookie", "a=1");
        h.append("X-Other", "z");
        h.append("set-cookie", "b=2");
        let all: Vec<_> = h.get_all("Set-Cookie").collect();
        assert_eq!(all, vec!["a=1", "b=2"]);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn set_replaces_all() {
        let mut h = HeaderMap::new();
        h.append("Cookie", "a=1");
        h.append("Cookie", "b=2");
        h.set("cookie", "c=3");
        let all: Vec<_> = h.get_all("Cookie").collect();
        assert_eq!(all, vec!["c=3"]);
    }

    #[test]
    fn set_keeps_the_first_position_and_drops_later_duplicates() {
        let mut h = HeaderMap::new();
        h.append("A", "1");
        h.append("Cookie", "a=1");
        h.append("B", "2");
        h.append("cookie", "b=2");
        h.append("C", "3");
        h.set("COOKIE", "c=3");
        let all: Vec<_> = h.iter().collect();
        assert_eq!(
            all,
            vec![("A", "1"), ("COOKIE", "c=3"), ("B", "2"), ("C", "3")]
        );
    }

    #[test]
    fn remove_reports_presence() {
        let mut h: HeaderMap = [("A", "1"), ("B", "2")].into_iter().collect();
        assert!(h.remove("a"));
        assert!(!h.remove("a"));
        assert_eq!(h.len(), 1);
    }
}

appvsweb_json::impl_json!(struct HeaderMap { entries });
