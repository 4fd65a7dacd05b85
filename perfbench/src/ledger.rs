//! The traced run's span recorder and the numbers derived from it.
//!
//! A span records its name, start, end, parent and a group id shared by
//! every span of one cell or job. Spans are kept in memory while the
//! run lasts and written out as JSON lines when it ends. Self time is a
//! span's duration minus the part of it that its children cover.

use appvsweb_json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink shared by the worker threads of one run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it closes when dropped.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    group: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            group: self.group,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // A poisoned sink only means a worker panicked mid-push; the
        // vector itself is still whole.
        let mut spans = self.tracer.spans.lock().unwrap_or_else(|p| p.into_inner());
        spans.push(span);
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under `parent` (or at the top when `None`).
    pub fn open(&self, name: &'static str, group: u64, parent: Option<u64>) -> Open<'_> {
        Open {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            group,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let _span = self.open(name, group, parent);
        f()
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// The closed spans of one run, indexed for the ledger's questions.
pub struct Spans {
    spans: Vec<Span>,
    self_ns: BTreeMap<u64, u64>,
}

impl Spans {
    pub fn new(spans: Vec<Span>) -> Spans {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let self_ns = spans
            .iter()
            .map(|s| {
                let covered = children.get_mut(&s.id).map_or(0, |c| covered_ns(c));
                (s.id, s.dur_ns().saturating_sub(covered))
            })
            .collect();
        Spans { spans, self_ns }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of the spans called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        ms(self.named(name).map(Span::dur_ns).sum())
    }

    /// Durations of the spans called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| ms(s.dur_ns())).collect()
    }

    /// Total self time of every span whose parent is called `parent`.
    pub fn children_self_ms(&self, parent: &str) -> f64 {
        let parents: Vec<u64> = self.named(parent).map(|s| s.id).collect();
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| parents.contains(&p)))
            .map(|s| self.self_ns.get(&s.id).copied().unwrap_or(0))
            .sum();
        ms(total)
    }

    /// One JSON object per span, sorted by start time.
    pub fn to_json_lines(&self) -> String {
        let mut sorted: Vec<&Span> = self.spans.iter().collect();
        sorted.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in sorted {
            let parent = s.parent.map_or(Json::Null, Json::Uint);
            let line = Json::Obj(vec![
                ("id".to_string(), Json::Uint(s.id)),
                ("parent".to_string(), parent),
                ("group".to_string(), Json::Uint(s.group)),
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("start_ns".to_string(), Json::Uint(s.start_ns)),
                ("end_ns".to_string(), Json::Uint(s.end_ns)),
                (
                    "self_ns".to_string(),
                    Json::Uint(self.self_ns.get(&s.id).copied().unwrap_or(0)),
                ),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

/// Length of the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut reach = 0u64;
    for &(start, end) in intervals.iter() {
        let from = start.max(reach);
        if end > from {
            total += end - from;
        }
        reach = reach.max(end);
    }
    total
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Process-wide counters of the program's two mutable caches.
///
/// This is the only place the benchmark reads them, and only the traced
/// run calls it, taking a snapshot before and after the measured work.
#[derive(Clone, Copy, Debug)]
pub struct CacheCounters {
    pub dict_builds: u64,
    pub dict_hits: u64,
    pub pool_takes: u64,
    pub pool_recycles: u64,
}

impl CacheCounters {
    pub fn snapshot() -> CacheCounters {
        let dict = appvsweb_pii::cache::stats();
        let pool = appvsweb_netsim::pool::stats();
        CacheCounters {
            dict_builds: dict.builds,
            dict_hits: dict.hits,
            pool_takes: pool.takes,
            pool_recycles: pool.recycles,
        }
    }

    pub fn since(self, before: CacheCounters) -> CacheCounters {
        CacheCounters {
            dict_builds: self.dict_builds - before.dict_builds,
            dict_hits: self.dict_hits - before.dict_hits,
            pool_takes: self.pool_takes - before.pool_takes,
            pool_recycles: self.pool_recycles - before.pool_recycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = Spans::new(vec![
            span(1, None, 0, 10_000_000),
            span(2, Some(1), 1_000_000, 4_000_000),
            span(3, Some(1), 3_000_000, 5_000_000),
        ]);
        assert_eq!(spans.self_ns[&1], 6_000_000);
        assert_eq!(spans.children_self_ms("root"), 5.0);
        assert_eq!(spans.total_ms("root"), 10.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }
}
