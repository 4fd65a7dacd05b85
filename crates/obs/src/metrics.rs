//! Campaign-wide metric totals, folded from a capture's cell journals.
//!
//! [`crate::counter!`] and [`crate::histogram!`] record into the active
//! cell journal and nowhere else, so the journal is the only store of
//! metric values. [`of`] sums a [`StudyJournal`] by metric name into a
//! name-sorted, JSON-serializable [`MetricsSnapshot`] — the document
//! `repro metrics` prints and the conservation laws of
//! `repro metrics --check` read. Per-cell attribution stays in the
//! journal itself.

use std::collections::BTreeMap;

use crate::journal::{StudyJournal, BUCKETS};

/// One aggregated counter in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Total across every cell journal.
    pub value: u64,
}

/// One aggregated histogram in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-log2-bucket counts (see [`crate::journal::bucket_index`]).
    pub buckets: Vec<u64>,
}

/// Every metric of one capture, summed over its cells, name-sorted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

appvsweb_json::impl_json!(struct CounterSnapshot { name, value });
appvsweb_json::impl_json!(struct HistogramSnapshot { name, count, sum, buckets });
appvsweb_json::impl_json!(struct MetricsSnapshot { counters, histograms });

impl MetricsSnapshot {
    /// Look up a counter total by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }
}

/// Sum every counter and histogram in `journal` by name.
pub fn of(journal: &StudyJournal) -> MetricsSnapshot {
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<&str, HistogramSnapshot> = BTreeMap::new();
    for cell in &journal.cells {
        for c in &cell.counters {
            *counters.entry(c.name.as_str()).or_insert(0) += c.value;
        }
        for h in &cell.histograms {
            let total = histograms
                .entry(h.name.as_str())
                .or_insert_with(|| HistogramSnapshot {
                    name: h.name.clone(),
                    count: 0,
                    sum: 0,
                    buckets: vec![0; BUCKETS],
                });
            total.count += h.count;
            total.sum += h.sum;
            for (sum, n) in total.buckets.iter_mut().zip(&h.buckets) {
                *sum += n;
            }
        }
    }
    MetricsSnapshot {
        counters: counters
            .into_iter()
            .map(|(name, value)| CounterSnapshot {
                name: name.to_string(),
                value,
            })
            .collect(),
        histograms: histograms.into_values().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{bucket_index, cell_scope};

    #[test]
    fn counters_fold_across_cells_and_call_sites() {
        crate::capture_begin();
        for cell in ["b", "a"] {
            let _scope = cell_scope(cell);
            crate::counter!("test.metrics.shared");
            crate::counter!("test.metrics.shared", 4);
            crate::counter!("test.metrics.another");
        }
        let snap = of(&crate::capture_end());
        assert_eq!(snap.counter("test.metrics.shared"), 10);
        assert_eq!(snap.counter("test.metrics.another"), 2);
        assert_eq!(snap.counter("test.metrics.absent"), 0);
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["test.metrics.another", "test.metrics.shared"]);
    }

    #[test]
    fn histograms_fold_by_log2_bucket_and_round_trip_as_json() {
        crate::capture_begin();
        for (cell, values) in [("x", &[0u64, 1, 2][..]), ("y", &[3, 1024][..])] {
            let _scope = cell_scope(cell);
            for &v in values {
                crate::histogram!("test.metrics.sizes", v);
            }
        }
        let snap = of(&crate::capture_end());
        let hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.metrics.sizes")
            .expect("histogram folded");
        assert_eq!(hist.count, 5);
        assert_eq!(hist.sum, 1030);
        assert_eq!(hist.buckets.get(bucket_index(0)).copied(), Some(1));
        assert_eq!(hist.buckets.get(bucket_index(2)).copied(), Some(2));
        let text = appvsweb_json::encode(&snap);
        let back: MetricsSnapshot = appvsweb_json::decode(&text).expect("round trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn an_empty_journal_folds_to_an_empty_snapshot() {
        assert_eq!(of(&StudyJournal::default()), MetricsSnapshot::default());
    }
}
