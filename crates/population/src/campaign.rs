//! The population campaign: sharded ingestion plus the fixed pairwise
//! reduction tree.
//!
//! The pipeline is three stages, all deterministic in
//! `(study, users, shards, seed)`:
//!
//! 1. **Shard** — users `0..N` are split into a *fixed* number of
//!    contiguous shards (independent of worker count), and the
//!    work-stealing executor ([`appvsweb_core::exec`]) races workers
//!    over shards. Each shard streams its users into one
//!    [`PopulationAggregate`] through the [`IngestPlan`] compiled once
//!    per campaign; the per-user scratch is a few bitsets the shard
//!    clears and reuses, so peak memory is `shards × |aggregate|`,
//!    independent of `N`.
//! 2. **Reduce** — shard states fold pairwise in a fixed binary tree
//!    over shard order: level after level, state `2k` absorbs state
//!    `2k+1`. The pairing is data-independent, and every aggregate's
//!    `merge` is the stream-concatenation homomorphism the law suite
//!    property-tests — so 1, 2, or 8 workers produce byte-identical
//!    reports.
//! 3. **Report** — the reduced state plus config echo and the peak
//!    shard-state footprint (the constant-memory witness).

use crate::model::{ServiceUse, Universe, UserModel};
use appvsweb_analysis::population::{
    cohort_key, figure_key, CohortStats, PiiStats, PopulationAggregate, FIGURES,
};
use appvsweb_analysis::{CellAnalysis, PopulationReport, QuantileSketch, Study};
use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::Os;
use appvsweb_pii::PiiType;
use appvsweb_services::Medium;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Population campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Simulated users.
    pub users: u64,
    /// Fixed shard count. Memory scales with shards, *not* users; the
    /// default keeps shard states comfortably under a megabyte total
    /// while giving the scheduler enough grain to steal.
    pub shards: u32,
    /// Worker threads racing over shards (1 = sequential). Output is
    /// byte-identical for every value.
    pub workers: usize,
    /// Population seed, keying every user stream. Independent of the
    /// base study's seed.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            users: 10_000,
            shards: 64,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            seed: 2016,
        }
    }
}

/// Organization view of a registrable domain (paper Table 2 style:
/// the registrable label sans public suffix).
fn organization(domain: &str) -> &str {
    domain.split('.').next().unwrap_or(domain)
}

/// The rank-ordered adoption universes of a study: every service with
/// a cell on an OS, best rank first.
fn universe(study: &Study) -> Universe {
    let mut ranked: BTreeMap<Os, BTreeSet<(u32, &str)>> = BTreeMap::new();
    for cell in &study.cells {
        ranked
            .entry(cell.os)
            .or_default()
            .insert((cell.rank, cell.service_id.as_str()));
    }
    let ordered = |os: Os| -> Vec<String> {
        ranked
            .get(&os)
            .map(|set| set.iter().map(|(_, id)| id.to_string()).collect())
            .unwrap_or_default()
    };
    Universe {
        android: ordered(Os::Android),
        ios: ordered(Os::Ios),
    }
}

fn os_slot(os: Os) -> usize {
    match os {
        Os::Android => 0,
        Os::Ios => 1,
    }
}

fn medium_slot(medium: Medium) -> usize {
    match medium {
        Medium::App => 0,
        Medium::Web => 1,
    }
}

/// OS × medium cohorts, indexed `2 · os_slot + medium_slot`.
const COHORTS: usize = 4;

/// A sorted, deduplicated id space: id `i` names `keys[i]`, so
/// ascending ids visit keys in ascending order.
struct Interner<'a> {
    keys: Vec<&'a str>,
}

impl<'a> Interner<'a> {
    fn new(keys: impl Iterator<Item = &'a str>) -> Self {
        let sorted: BTreeSet<&'a str> = keys.collect();
        Interner {
            keys: sorted.into_iter().collect(),
        }
    }

    fn id(&self, key: &str) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// Words in a bitset over this id space.
    fn words(&self) -> usize {
        self.keys.len().div_ceil(64)
    }

    /// The bitset of `keys`' ids.
    fn bits<'k>(&self, keys: impl Iterator<Item = &'k str>) -> Vec<u64> {
        let mut bits = vec![0u64; self.words()];
        for id in keys.filter_map(|key| self.id(key)) {
            if let Some(word) = bits.get_mut(id / 64) {
                *word |= 1 << (id % 64);
            }
        }
        bits
    }
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn popcount(bits: &[u64]) -> u64 {
    bits.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Set-bit positions of a bitset, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(i * 64 + bit)
        })
    })
}

/// One PII type a cell leaks: its slot in [`PiiType::ALL`] and the
/// cell's per-session instance count.
struct TypeCount {
    slot: usize,
    count: u64,
    unique_id: bool,
}

/// One base-study cell, compiled for ingestion.
struct CellPlan {
    total_flows: u64,
    aa_flows: u64,
    aa_bytes: u64,
    /// Leaked types in `per_type` order.
    types: Vec<TypeCount>,
    /// Bit `slot` set for every entry of `types`.
    type_mask: u16,
    /// `(org id, leaks)` per `per_domain_leaks` entry, in its order.
    org_leaks: Vec<(usize, u64)>,
    /// Bitset over org ids of `per_domain_leaks`' organizations.
    orgs: Vec<u64>,
    /// Bitset over A&A-domain ids.
    aa_domains: Vec<u64>,
    /// Bitset over leak-domain ids.
    leak_domains: Vec<u64>,
    medium: Medium,
    /// Index into [`IngestPlan::cohort_keys`].
    cohort: usize,
}

/// Plan indices of one service's `[App, Web]` cells on one OS.
type MediaCells = [Option<usize>; 2];

/// The base study compiled once per campaign into the integer form a
/// user is ingested in: per-cell counters, type masks and interned-id
/// bitsets, plus every aggregate key formatted up front. Ingesting a
/// user is then bit-ORs, popcounts and saturating adds; the only string
/// work left is the top-k sketch calls, which keep the reference's
/// exact call sequence so eviction stays byte-identical too.
pub struct IngestPlan<'a> {
    cells: Vec<CellPlan>,
    /// Per OS slot: `(service id, cells)`, sorted by id.
    lookup: [Vec<(&'a str, MediaCells)>; 2],
    /// Organization names by id, ascending.
    orgs: Vec<&'a str>,
    org_words: usize,
    aa_words: usize,
    leak_words: usize,
    cohort_keys: [String; COHORTS],
    /// `[os slot][figure]` sketch keys, figures in [`FIGURES`] order.
    figure_keys: [Vec<String>; 2],
    universe: Universe,
}

impl<'a> IngestPlan<'a> {
    /// Compile `study` into an ingest plan.
    pub fn new(study: &'a Study) -> Self {
        let orgs = Interner::new(
            study
                .cells
                .iter()
                .flat_map(|c| c.per_domain_leaks.keys().map(|d| organization(d))),
        );
        let aa = Interner::new(
            study
                .cells
                .iter()
                .flat_map(|c| c.aa_domains.iter().map(String::as_str)),
        );
        let leak = Interner::new(
            study
                .cells
                .iter()
                .flat_map(|c| c.leak_domains.iter().map(String::as_str)),
        );

        let mut by_id: [BTreeMap<&'a str, MediaCells>; 2] = Default::default();
        let mut cells = Vec::with_capacity(study.cells.len());
        for cell in &study.cells {
            if let Some(slots) = by_id.get_mut(os_slot(cell.os)) {
                let entry = slots.entry(cell.service_id.as_str()).or_default();
                if let Some(slot) = entry.get_mut(medium_slot(cell.medium)) {
                    // A later duplicate cell shadows an earlier one.
                    *slot = Some(cells.len());
                }
            }
            cells.push(Self::compile_cell(cell, &orgs, &aa, &leak));
        }

        let [android, ios] = by_id;
        let figure_keys = |os: Os| FIGURES.iter().map(|(f, _)| figure_key(f, os)).collect();
        IngestPlan {
            cells,
            lookup: [android.into_iter().collect(), ios.into_iter().collect()],
            org_words: orgs.words(),
            aa_words: aa.words(),
            leak_words: leak.words(),
            orgs: orgs.keys,
            cohort_keys: [
                cohort_key(Os::Android, Medium::App),
                cohort_key(Os::Android, Medium::Web),
                cohort_key(Os::Ios, Medium::App),
                cohort_key(Os::Ios, Medium::Web),
            ],
            figure_keys: [figure_keys(Os::Android), figure_keys(Os::Ios)],
            universe: universe(study),
        }
    }

    fn compile_cell(
        cell: &CellAnalysis,
        orgs: &Interner,
        aa: &Interner,
        leak: &Interner,
    ) -> CellPlan {
        let types: Vec<TypeCount> = cell
            .per_type
            .iter()
            .filter_map(|(ty, agg)| {
                Some(TypeCount {
                    slot: PiiType::ALL.iter().position(|t| t == ty)?,
                    count: agg.count,
                    unique_id: *ty == PiiType::UniqueId,
                })
            })
            .collect();
        CellPlan {
            total_flows: cell.total_flows,
            aa_flows: cell.aa_flows,
            aa_bytes: cell.aa_bytes,
            type_mask: types.iter().fold(0, |mask, t| mask | 1 << t.slot),
            types,
            org_leaks: cell
                .per_domain_leaks
                .iter()
                .filter_map(|(domain, leaks)| Some((orgs.id(organization(domain))?, *leaks)))
                .collect(),
            orgs: orgs.bits(cell.per_domain_leaks.keys().map(|d| organization(d))),
            aa_domains: aa.bits(cell.aa_domains.iter().map(String::as_str)),
            leak_domains: leak.bits(cell.leak_domains.iter().map(String::as_str)),
            medium: cell.medium,
            cohort: 2 * os_slot(cell.os) + medium_slot(cell.medium),
        }
    }

    /// The adoption universe users are sampled from.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// `[App cell, Web cell]` of `service_id` on the OS in `os_slot`.
    fn service(&self, os_slot: usize, service_id: &str) -> Option<[Option<&CellPlan>; 2]> {
        let services = self.lookup.get(os_slot)?;
        let at = services
            .binary_search_by(|(id, _)| (*id).cmp(service_id))
            .ok()?;
        let (_, [app, web]) = services.get(at)?;
        Some([
            app.and_then(|i| self.cells.get(i)),
            web.and_then(|i| self.cells.get(i)),
        ])
    }
}

/// Per-user, per-medium scratch for the figure diffs: bitsets over the
/// plan's id spaces, cleared and reused for every user of a shard.
struct MediumScratch {
    aa_domains: Vec<u64>,
    leak_domains: Vec<u64>,
    types: u16,
    aa_flows: u64,
    aa_bytes: u64,
}

impl MediumScratch {
    fn new(plan: &IngestPlan) -> Self {
        MediumScratch {
            aa_domains: vec![0; plan.aa_words],
            leak_domains: vec![0; plan.leak_words],
            types: 0,
            aa_flows: 0,
            aa_bytes: 0,
        }
    }

    fn clear(&mut self) {
        self.aa_domains.fill(0);
        self.leak_domains.fill(0);
        self.types = 0;
        self.aa_flows = 0;
        self.aa_bytes = 0;
    }
}

/// One shard's running state. Scalar counters and top-k sketches live
/// in `agg` directly; the keyed maps are held densely by plan slot and
/// keyed once, when the shard finishes (saturating adds of
/// non-negative counts commute, so the totals are the same).
struct ShardState {
    agg: PopulationAggregate,
    pii: [PiiStats; PiiType::ALL.len()],
    pii_seen: u16,
    cohorts: [CohortStats; COHORTS],
    cohorts_seen: u8,
    /// `[os slot][figure]`.
    figures: [Vec<QuantileSketch>; 2],
    os_seen: [bool; 2],
    media: [MediumScratch; 2],
    orgs: Vec<u64>,
}

impl ShardState {
    fn new(plan: &IngestPlan) -> Self {
        ShardState {
            agg: PopulationAggregate::new(),
            pii: Default::default(),
            pii_seen: 0,
            cohorts: Default::default(),
            cohorts_seen: 0,
            figures: [
                vec![QuantileSketch::new(); FIGURES.len()],
                vec![QuantileSketch::new(); FIGURES.len()],
            ],
            os_seen: [false; 2],
            media: [MediumScratch::new(plan), MediumScratch::new(plan)],
            orgs: vec![0; plan.org_words],
        }
    }

    /// Key the dense state into the aggregate.
    fn finish(self, plan: &IngestPlan) -> PopulationAggregate {
        let mut agg = self.agg;
        for (slot, (ty, stats)) in PiiType::ALL.iter().zip(self.pii).enumerate() {
            if self.pii_seen & 1 << slot != 0 {
                agg.pii.insert(*ty, stats);
            }
        }
        for (slot, (key, stats)) in plan.cohort_keys.iter().zip(self.cohorts).enumerate() {
            if self.cohorts_seen & 1 << slot != 0 {
                agg.cohorts.insert(key.clone(), stats);
            }
        }
        for ((seen, keys), sketches) in self.os_seen.iter().zip(&plan.figure_keys).zip(self.figures)
        {
            if *seen {
                agg.figures.extend(keys.iter().cloned().zip(sketches));
            }
        }
        agg
    }
}

/// Stream one user into a shard.
///
/// Scaling model: a user's session of a cell observes the cell's
/// measured per-session traffic, so counts scale linearly with the
/// user's session count; device churn re-exposes hardware identifiers,
/// so UniqueId instances additionally scale with device generations.
fn ingest_user(state: &mut ShardState, user: &UserModel, plan: &IngestPlan) {
    let os = os_slot(user.os);
    for side in state.media.iter_mut() {
        side.clear();
    }
    state.orgs.fill(0);
    state.agg.users = state.agg.users.saturating_add(1);
    let mut leaked = false;
    let mut cohorts = 0u8;

    for ServiceUse {
        service_id,
        app_sessions,
        web_sessions,
    } in &user.services
    {
        let Some(cells) = plan.service(os, service_id) else {
            continue;
        };
        for ((cell, sessions), side) in cells
            .into_iter()
            .zip([*app_sessions, *web_sessions])
            .zip(state.media.iter_mut())
        {
            let Some(cell) = cell.filter(|_| sessions > 0) else {
                continue;
            };
            let s = u64::from(sessions);
            let agg = &mut state.agg;
            agg.sessions = agg.sessions.saturating_add(s);
            agg.flows = agg.flows.saturating_add(cell.total_flows.saturating_mul(s));
            agg.aa_flows = agg.aa_flows.saturating_add(cell.aa_flows.saturating_mul(s));
            agg.aa_bytes = agg.aa_bytes.saturating_add(cell.aa_bytes.saturating_mul(s));

            let mut cell_leaks = 0u64;
            for ty in &cell.types {
                let churn = if ty.unique_id {
                    u64::from(user.device_generations)
                } else {
                    1
                };
                let instances = ty.count.saturating_mul(s).saturating_mul(churn);
                cell_leaks = cell_leaks.saturating_add(instances);
                if let Some(stats) = state.pii.get_mut(ty.slot) {
                    stats.instances = stats.instances.saturating_add(instances);
                    let by_medium = match cell.medium {
                        Medium::App => &mut stats.app_instances,
                        Medium::Web => &mut stats.web_instances,
                    };
                    *by_medium = by_medium.saturating_add(instances);
                }
            }
            state.pii_seen |= cell.type_mask;
            side.types |= cell.type_mask;
            agg.leak_instances = agg.leak_instances.saturating_add(cell_leaks);
            leaked |= cell_leaks > 0;

            for &(org, leaks) in &cell.org_leaks {
                if let Some(name) = plan.orgs.get(org) {
                    agg.leak_orgs.add(name, leaks.saturating_mul(s));
                }
            }
            or_into(&mut state.orgs, &cell.orgs);
            or_into(&mut side.aa_domains, &cell.aa_domains);
            or_into(&mut side.leak_domains, &cell.leak_domains);
            side.aa_flows = side
                .aa_flows
                .saturating_add(cell.aa_flows.saturating_mul(s));
            side.aa_bytes = side
                .aa_bytes
                .saturating_add(cell.aa_bytes.saturating_mul(s));

            if let Some(cohort) = state.cohorts.get_mut(cell.cohort) {
                cohort.sessions = cohort.sessions.saturating_add(s);
                cohort.aa_flows = cohort
                    .aa_flows
                    .saturating_add(cell.aa_flows.saturating_mul(s));
                cohort.aa_bytes = cohort
                    .aa_bytes
                    .saturating_add(cell.aa_bytes.saturating_mul(s));
                cohort.leak_instances = cohort.leak_instances.saturating_add(cell_leaks);
            }
            cohorts |= 1 << cell.cohort;
        }
    }

    let agg = &mut state.agg;
    if leaked {
        agg.users_leaking = agg.users_leaking.saturating_add(1);
    }
    state.cohorts_seen |= cohorts;
    for (slot, stats) in state.cohorts.iter_mut().enumerate() {
        if cohorts & 1 << slot != 0 {
            stats.users = stats.users.saturating_add(1);
        }
    }
    let [app, web] = &state.media;
    let user_types = app.types | web.types;
    for (slot, stats) in state.pii.iter_mut().enumerate() {
        if user_types & 1 << slot != 0 {
            stats.users = stats.users.saturating_add(1);
        }
    }
    for org in ones(&state.orgs) {
        if let Some(name) = plan.orgs.get(org) {
            agg.org_reach.add(name, 1);
        }
    }

    // The per-user app-vs-web difference samples (Figures 2–7, in
    // `FIGURES` order); figure 7 is the Jaccard similarity of the
    // leaked-type sets, 0 when both are empty.
    let diff = |a: u64, b: u64| a as f64 - b as f64;
    let shared = (app.types & web.types).count_ones();
    let either = user_types.count_ones();
    let samples = [
        diff(popcount(&app.aa_domains), popcount(&web.aa_domains)),
        diff(app.aa_flows, web.aa_flows),
        diff(app.aa_bytes, web.aa_bytes) / 1.0e6,
        diff(popcount(&app.leak_domains), popcount(&web.leak_domains)),
        diff(
            u64::from(app.types.count_ones()),
            u64::from(web.types.count_ones()),
        ),
        if either == 0 {
            0.0
        } else {
            f64::from(shared) / f64::from(either)
        },
    ];
    if let Some(sketches) = state.figures.get_mut(os) {
        for (sketch, value) in sketches.iter_mut().zip(samples) {
            sketch.add(value);
        }
    }
    if let Some(seen) = state.os_seen.get_mut(os) {
        *seen = true;
    }
}

/// Stream users `users` of the campaign seeded by `seed` into one
/// aggregate (one shard's worth of work) through `plan`.
pub fn ingest_users(plan: &IngestPlan, seed: u64, users: Range<u64>) -> PopulationAggregate {
    let mut state = ShardState::new(plan);
    for user_id in users {
        let user = UserModel::generate(seed, user_id, &plan.universe);
        ingest_user(&mut state, &user, plan);
    }
    state.finish(plan)
}

/// Fold shard states pairwise in a fixed binary tree over shard order.
/// The pairing never depends on timing, so any worker count yields the
/// same sequence of merges — and since `merge` is associative on these
/// states, the same bytes.
fn reduce_tree(mut states: Vec<PopulationAggregate>, workers: usize) -> PopulationAggregate {
    while states.len() > 1 {
        let pairs: Vec<&[PopulationAggregate]> = states.chunks(2).collect();
        states = appvsweb_core::exec::run_indexed(&pairs, workers, 1, |_, pair| {
            let mut left = pair.first().cloned().unwrap_or_default();
            if let Some(right) = pair.get(1) {
                left.merge(right);
            }
            left
        });
    }
    states.into_iter().next().unwrap_or_default()
}

/// Run a population campaign over an already-measured base study.
///
/// Pure in `(study, cfg)`: re-running with any worker count returns a
/// byte-identical [`PopulationReport`].
pub fn run_campaign_on(study: &Study, cfg: &CampaignConfig) -> PopulationReport {
    let plan = IngestPlan::new(study);
    let shards = cfg.shards.max(1);
    let ranges: Vec<Range<u64>> = (0..shards as u64)
        .map(|i| i * cfg.users / shards as u64..(i + 1) * cfg.users / shards as u64)
        .collect();
    let states = appvsweb_core::exec::run_indexed(&ranges, cfg.workers.max(1), 1, |_, range| {
        ingest_users(&plan, cfg.seed, range.clone())
    });
    let peak_state_bytes = states.iter().map(|s| s.approx_bytes()).max().unwrap_or(0);
    let aggregate = reduce_tree(states, cfg.workers.max(1));
    PopulationReport {
        users: cfg.users,
        shards,
        seed: cfg.seed,
        peak_state_bytes,
        aggregate,
    }
}

/// Measure the base study, then run the campaign on it.
pub fn run_campaign(study_cfg: &StudyConfig, cfg: &CampaignConfig) -> PopulationReport {
    run_campaign_on(&run_study(study_cfg), cfg)
}

/// The string-keyed ingest the [`IngestPlan`] replaced, kept as the
/// differential oracle for it: per-user `BTreeSet`s of domain, org and
/// type keys, and every aggregate key formatted per use.
pub mod reference {
    use super::*;
    use appvsweb_analysis::stats;

    /// Lookup from `(service, OS, medium)` to the base study's cell.
    struct CellIndex<'a> {
        cells: BTreeMap<(&'a str, Os, Medium), &'a CellAnalysis>,
    }

    impl<'a> CellIndex<'a> {
        fn new(study: &'a Study) -> Self {
            CellIndex {
                cells: study
                    .cells
                    .iter()
                    .map(|cell| ((cell.service_id.as_str(), cell.os, cell.medium), cell))
                    .collect(),
            }
        }

        fn get(&self, service_id: &str, os: Os, medium: Medium) -> Option<&'a CellAnalysis> {
            self.cells.get(&(service_id, os, medium)).copied()
        }
    }

    /// Per-user, per-medium scratch for the figure diffs.
    #[derive(Default)]
    struct MediumScratch<'a> {
        aa_domains: BTreeSet<&'a str>,
        aa_flows: u64,
        aa_bytes: u64,
        leak_domains: BTreeSet<&'a str>,
        types: BTreeSet<PiiType>,
    }

    /// Stream one user into a shard aggregate (the reference twin of
    /// the plan ingest).
    fn ingest_user_reference(agg: &mut PopulationAggregate, user: &UserModel, index: &CellIndex) {
        agg.users = agg.users.saturating_add(1);
        let mut app = MediumScratch::default();
        let mut web = MediumScratch::default();
        let mut orgs: BTreeSet<&str> = BTreeSet::new();
        let mut cohorts: BTreeSet<String> = BTreeSet::new();
        let mut leaked = false;

        for ServiceUse {
            service_id,
            app_sessions,
            web_sessions,
        } in &user.services
        {
            for (medium, sessions) in [(Medium::App, *app_sessions), (Medium::Web, *web_sessions)] {
                if sessions == 0 {
                    continue;
                }
                let Some(cell) = index.get(service_id, user.os, medium) else {
                    continue;
                };
                let s = sessions as u64;
                let scratch = match medium {
                    Medium::App => &mut app,
                    Medium::Web => &mut web,
                };

                agg.sessions = agg.sessions.saturating_add(s);
                agg.flows = agg.flows.saturating_add(cell.total_flows.saturating_mul(s));
                agg.aa_flows = agg.aa_flows.saturating_add(cell.aa_flows.saturating_mul(s));
                agg.aa_bytes = agg.aa_bytes.saturating_add(cell.aa_bytes.saturating_mul(s));

                let mut cell_leaks = 0u64;
                for (ty, type_agg) in &cell.per_type {
                    let churn = if *ty == PiiType::UniqueId {
                        user.device_generations as u64
                    } else {
                        1
                    };
                    let instances = type_agg.count.saturating_mul(s).saturating_mul(churn);
                    cell_leaks = cell_leaks.saturating_add(instances);
                    let stats = agg.pii.entry(*ty).or_default();
                    stats.instances = stats.instances.saturating_add(instances);
                    match medium {
                        Medium::App => {
                            stats.app_instances = stats.app_instances.saturating_add(instances)
                        }
                        Medium::Web => {
                            stats.web_instances = stats.web_instances.saturating_add(instances)
                        }
                    }
                    scratch.types.insert(*ty);
                }
                agg.leak_instances = agg.leak_instances.saturating_add(cell_leaks);
                leaked |= cell_leaks > 0;

                for (domain, leaks) in &cell.per_domain_leaks {
                    let org = organization(domain);
                    agg.leak_orgs.add(org, leaks.saturating_mul(s));
                    orgs.insert(org);
                }
                for domain in &cell.aa_domains {
                    scratch.aa_domains.insert(domain.as_str());
                }
                for domain in &cell.leak_domains {
                    scratch.leak_domains.insert(domain.as_str());
                }
                scratch.aa_flows = scratch
                    .aa_flows
                    .saturating_add(cell.aa_flows.saturating_mul(s));
                scratch.aa_bytes = scratch
                    .aa_bytes
                    .saturating_add(cell.aa_bytes.saturating_mul(s));

                let cohort = cohort_key(user.os, medium);
                let cohort_stats = agg.cohorts.entry(cohort.clone()).or_default();
                cohort_stats.sessions = cohort_stats.sessions.saturating_add(s);
                cohort_stats.aa_flows = cohort_stats
                    .aa_flows
                    .saturating_add(cell.aa_flows.saturating_mul(s));
                cohort_stats.aa_bytes = cohort_stats
                    .aa_bytes
                    .saturating_add(cell.aa_bytes.saturating_mul(s));
                cohort_stats.leak_instances =
                    cohort_stats.leak_instances.saturating_add(cell_leaks);
                cohorts.insert(cohort);
            }
        }

        if leaked {
            agg.users_leaking = agg.users_leaking.saturating_add(1);
        }
        for cohort in cohorts {
            if let Some(stats) = agg.cohorts.get_mut(&cohort) {
                stats.users = stats.users.saturating_add(1);
            }
        }
        let user_types: BTreeSet<PiiType> = app.types.union(&web.types).copied().collect();
        for ty in user_types {
            if let Some(stats) = agg.pii.get_mut(&ty) {
                stats.users = stats.users.saturating_add(1);
            }
        }
        for org in orgs {
            agg.org_reach.add(org, 1);
        }

        // The per-user app-vs-web difference samples (Figures 2–7).
        let diff = |a: u64, b: u64| a as f64 - b as f64;
        let samples = [
            (
                "fig2",
                diff(app.aa_domains.len() as u64, web.aa_domains.len() as u64),
            ),
            ("fig3", diff(app.aa_flows, web.aa_flows)),
            ("fig4", diff(app.aa_bytes, web.aa_bytes) / 1.0e6),
            (
                "fig5",
                diff(app.leak_domains.len() as u64, web.leak_domains.len() as u64),
            ),
            ("fig6", diff(app.types.len() as u64, web.types.len() as u64)),
            ("fig7", stats::jaccard(&app.types, &web.types)),
        ];
        for (figure, value) in samples {
            agg.figures
                .entry(figure_key(figure, user.os))
                .or_default()
                .add(value);
        }
    }

    /// The reference twin of [`ingest_users`](super::ingest_users):
    /// stream users `users` of the campaign seeded by `seed` into one
    /// aggregate over `study`.
    pub fn ingest_users_reference(
        study: &Study,
        seed: u64,
        users: Range<u64>,
    ) -> PopulationAggregate {
        let index = CellIndex::new(study);
        let universe = universe(study);
        let mut agg = PopulationAggregate::new();
        for user_id in users {
            let user = UserModel::generate(seed, user_id, &universe);
            ingest_user_reference(&mut agg, &user, &index);
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appvsweb_analysis::leaks::TypeAggregate;
    use appvsweb_netsim::FaultCounts;
    use appvsweb_services::{Catalog, ServiceCategory};

    /// A tiny synthetic two-service study — unit tests must not pay for
    /// the real simulator (integration suites do).
    pub(crate) fn tiny_study() -> Study {
        let mut cells = Vec::new();
        for (idx, service_id) in ["alpha", "beta"].iter().enumerate() {
            for os in [Os::Android, Os::Ios] {
                for medium in Medium::BOTH {
                    let heavier = u64::from(medium == Medium::Web);
                    let mut per_type = BTreeMap::new();
                    let mut leak_domains = BTreeSet::new();
                    let mut per_domain_leaks = BTreeMap::new();
                    if idx == 0 {
                        per_type.insert(
                            PiiType::Email,
                            TypeAggregate {
                                count: 1 + heavier,
                                domains: BTreeSet::from(["tracker.com".to_string()]),
                            },
                        );
                        if medium == Medium::App {
                            per_type.insert(
                                PiiType::UniqueId,
                                TypeAggregate {
                                    count: 2,
                                    domains: BTreeSet::from(["tracker.com".to_string()]),
                                },
                            );
                        }
                        leak_domains.insert("tracker.com".to_string());
                        per_domain_leaks.insert("tracker.com".to_string(), 2 + heavier);
                    }
                    cells.push(CellAnalysis {
                        service_id: service_id.to_string(),
                        service_name: service_id.to_uppercase(),
                        category: ServiceCategory::News,
                        rank: 1 + idx as u32,
                        os,
                        medium,
                        aa_domains: BTreeSet::from([
                            "ads.example".to_string(),
                            format!("cdn{heavier}.example"),
                        ]),
                        aa_flows: 3 + heavier,
                        aa_bytes: 10_000 * (1 + heavier),
                        total_flows: 9,
                        leaks: Vec::new(),
                        leak_domains,
                        leaked_types: per_type.keys().copied().collect(),
                        per_type,
                        per_domain_leaks,
                        per_domain_types: BTreeMap::new(),
                        fault_counts: FaultCounts::default(),
                        retries: 0,
                    });
                }
            }
        }
        Study {
            cells,
            health: Default::default(),
        }
    }

    #[test]
    fn campaign_is_byte_identical_across_worker_counts() {
        let study = tiny_study();
        let base = CampaignConfig {
            users: 500,
            shards: 16,
            workers: 1,
            seed: 2016,
        };
        let one = run_campaign_on(&study, &base);
        for workers in [2, 8] {
            let other = run_campaign_on(
                &study,
                &CampaignConfig {
                    workers,
                    ..base.clone()
                },
            );
            assert_eq!(
                appvsweb_json::encode(&one),
                appvsweb_json::encode(&other),
                "{workers} workers must match 1 worker byte for byte"
            );
        }
    }

    #[test]
    fn merging_shards_equals_one_big_shard() {
        let study = tiny_study();
        let cfg = CampaignConfig {
            users: 300,
            shards: 1,
            workers: 1,
            seed: 5,
        };
        let single = run_campaign_on(&study, &cfg);
        let sharded = run_campaign_on(&study, &CampaignConfig { shards: 32, ..cfg });
        // Same aggregate regardless of shard partitioning (the merge
        // law, end to end); peak-state differs by design.
        assert_eq!(
            appvsweb_json::encode(&single.aggregate),
            appvsweb_json::encode(&sharded.aggregate)
        );
        assert!(single.aggregate.is_exact());
    }

    #[test]
    fn aggregate_is_plausible() {
        let study = tiny_study();
        let report = run_campaign_on(
            &study,
            &CampaignConfig {
                users: 400,
                shards: 8,
                workers: 4,
                seed: 2016,
            },
        );
        let agg = &report.aggregate;
        assert_eq!(agg.users, 400);
        assert!(agg.sessions > 400, "multiple sessions per user");
        assert!(agg.users_leaking > 0);
        assert!(agg.users_leaking <= agg.users);
        assert!(agg.leak_instances > 0);
        assert!(agg.pii.contains_key(&PiiType::UniqueId));
        let uid = &agg.pii[&PiiType::UniqueId];
        assert_eq!(uid.web_instances, 0, "hardware ids leak only via apps");
        assert!(uid.app_instances > 0);
        assert!(agg.leak_orgs.count("tracker") > 0);
        assert!(agg.org_reach.count("tracker") <= agg.users);
        assert!(!agg.figures.is_empty());
        assert!(report.peak_state_bytes > 0);
    }

    #[test]
    fn memory_is_constant_in_user_count() {
        let study = tiny_study();
        let at = |users: u64| {
            run_campaign_on(
                &study,
                &CampaignConfig {
                    users,
                    shards: 8,
                    workers: 4,
                    seed: 3,
                },
            )
            .peak_state_bytes
        };
        let small = at(1_000);
        let large = at(8_000);
        assert!(
            large <= small.saturating_mul(2),
            "8x the users must not grow shard state: {small} -> {large} bytes"
        );
    }

    #[test]
    fn real_catalog_universe_is_rank_ordered() {
        // Spot-check the plan's universe against the real catalog shape
        // without running the simulator: build a study of empty cells.
        let catalog = Catalog::paper();
        let mut cells = Vec::new();
        for os in [Os::Android, Os::Ios] {
            for spec in catalog.testable_on(os) {
                cells.push(CellAnalysis {
                    service_id: spec.id.to_string(),
                    service_name: spec.name.to_string(),
                    category: spec.category,
                    rank: spec.rank,
                    os,
                    medium: Medium::App,
                    aa_domains: BTreeSet::new(),
                    aa_flows: 0,
                    aa_bytes: 0,
                    total_flows: 0,
                    leaks: Vec::new(),
                    leak_domains: BTreeSet::new(),
                    leaked_types: BTreeSet::new(),
                    per_type: BTreeMap::new(),
                    per_domain_leaks: BTreeMap::new(),
                    per_domain_types: BTreeMap::new(),
                    fault_counts: FaultCounts::default(),
                    retries: 0,
                });
            }
        }
        let study = Study {
            cells,
            health: Default::default(),
        };
        let plan = IngestPlan::new(&study);
        assert_eq!(plan.universe().android.len(), 49);
        assert_eq!(plan.universe().ios.len(), 49);
    }
}
