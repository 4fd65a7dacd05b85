//! The ReCon-style machine-learning detector, from scratch.
//!
//! ReCon (Ren et al., MobiSys 2016) detects "likely PII in network
//! traffic without needing to know the precise PII values": flows are
//! tokenized into bag-of-words features and per-destination-domain
//! decision-tree classifiers (C4.5 in the original) are trained on
//! labelled flows, with a general classifier as fallback for domains with
//! too little training data. This module implements that design:
//!
//! * [`DecisionTree`] — a binary decision tree over token-presence
//!   features, grown by information gain with depth / minimum-sample /
//!   purity stopping rules
//! * [`ReconTrainer`] / [`ReconClassifier`] — the per-domain ensemble,
//!   one binary tree per (domain, PII type), plus general fallback trees
//! * value-extraction heuristics that pull the suspected value out of a
//!   flagged flow via key/value context
//!
//! # Training on an interned corpus
//!
//! One [`ReconTrainer::train`] grows up to ~150 trees (14 domains plus
//! the general model, × 10 PII types) over the same flows, so it interns
//! the corpus once instead of re-reading token strings per tree:
//!
//! * every flow is tokenized once with [`token_set`];
//! * the vocabulary is sorted by byte order, so token id order *is*
//!   string order;
//! * each flow becomes a sorted `Vec<u32>` of token ids and its labels a
//!   10-bit [`PiiType`] mask.
//!
//! Each tree then counts its root statistics into one dense scratch
//! indexed by id (reused across trees and reset through a touched
//! list), keeps the `max_features` ids with the highest root
//! information gain, remaps them to local indices `0..F` in ascending id
//! order, and stores every example as a `⌈F/64⌉`-word bitset. Growing a
//! node counts by walking set bits, and partitioning is a bit test.
//!
//! The trees are byte-identical to growing over `BTreeSet<String>`
//! examples, the retained reference twin
//! ([`DecisionTree::train_reference`], compiled under `cfg(test)` or the
//! `reference` feature). Counts are integers and every gain is the same
//! f64 expression over the same integers, so only tie-breaks could
//! differ, and they carry over because ids are assigned in byte order:
//! "the first token in `BTreeMap` order wins a gain tie" (splits, strict
//! `>`) becomes "the lowest local index wins", and feature selection's
//! "gain descending, then token ascending" becomes "gain descending, then
//! id ascending". [`Node::Split`] still stores the token string, so the
//! classifier, its JSON, and [`ReconClassifier::predict`] are unchanged.
//! `tests/fastpath_differential.rs` holds the two trainers equal on
//! tie-heavy generated corpora and on the real paper training corpus.
//!
//! # Compiled inference
//!
//! A [`ReconClassifier`] is its trees, which are what it serializes, plus
//! a compiled form derived from them when it is built or parsed. The
//! compiled form interns every split token into a hash table mapping the
//! token to a feature id, flattens every tree into one node array over
//! those ids, and lists per domain the `(type, root)` pairs
//! [`ReconClassifier::predict`] evaluates, general fallbacks included.
//! A flow then costs one table probe per token of its [`FlowView`], a
//! bit set per hit, and a walk down flat nodes per tree. The old
//! `BTreeSet<String>` inference stays as
//! `ReconClassifier::predict_reference`, compiled under `cfg(test)` or
//! the `reference` feature.

use crate::tokenize::{token_set, FlowView};
use crate::types::PiiType;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Tree-growing parameters.
#[derive(Clone, Copy, Debug)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum examples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum information gain to accept a split.
    pub min_gain: f64,
    /// Vocabulary cap: keep only the `max_features` tokens with the
    /// highest root information gain before growing the tree (0 = no
    /// cap). ReCon prunes its bag-of-words the same way — flow
    /// vocabularies are huge and mostly uninformative.
    pub max_features: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 4,
            min_gain: 1e-3,
            max_features: 256,
        }
    }
}

/// A node in the tree.
#[derive(Clone, Debug)]
enum Node {
    /// Leaf with the positive-class probability at this node.
    Leaf(f64),
    /// Split on presence of a token.
    Split {
        token: String,
        /// Subtree when the token is present.
        present: Box<Node>,
        /// Subtree when absent.
        absent: Box<Node>,
    },
}

/// A binary decision tree over token-presence features.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    root: Node,
    /// Number of training examples the tree saw.
    pub trained_on: usize,
}

fn entropy(pos: usize, neg: usize) -> f64 {
    let n = (pos + neg) as f64;
    if pos == 0 || neg == 0 {
        return 0.0;
    }
    let p = pos as f64 / n;
    let q = neg as f64 / n;
    -(p * p.log2() + q * q.log2())
}

/// Weighted child entropy of splitting `n` examples (`pos` of them
/// positive) on a feature present in `present` of them (`present_pos`
/// positive). Feature selection and node splitting both evaluate this
/// one expression, term for term as the reference grower does, so equal
/// counts always give equal bits.
fn split_entropy(n: usize, pos: usize, present: usize, present_pos: usize) -> f64 {
    let absent = n - present;
    let absent_pos = pos - present_pos;
    (present as f64 / n as f64) * entropy(present_pos, present - present_pos)
        + (absent as f64 / n as f64) * entropy(absent_pos, absent - absent_pos)
}

impl DecisionTree {
    /// Train on `(token_set, label)` examples. Token sets must be
    /// deduplicated (as produced by [`crate::tokenize::token_set`]).
    ///
    /// Interns the examples and grows the tree the way
    /// [`ReconTrainer::train`] grows each of its trees.
    pub fn train(examples: &[(BTreeSet<String>, bool)], config: &TreeConfig) -> Self {
        let sets: Vec<Vec<&str>> = examples
            .iter()
            .map(|(tokens, _)| tokens.iter().map(String::as_str).collect())
            .collect();
        let corpus = Interned::new(&sets);
        let interned: Vec<(&[u32], bool)> = corpus
            .flows
            .iter()
            .zip(examples)
            .map(|(ids, (_, label))| (ids.as_slice(), *label))
            .collect();
        corpus.train_tree(&interned, config, &mut Scratch::new(corpus.vocab.len()))
    }

    /// Positive-class probability for a token set.
    pub fn score(&self, tokens: &BTreeSet<String>) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(p) => return *p,
                Node::Split {
                    token,
                    present,
                    absent,
                } => {
                    node = if tokens.contains(token) {
                        present
                    } else {
                        absent
                    };
                }
            }
        }
    }

    /// Binary prediction at the 0.5 threshold.
    pub fn predict(&self, tokens: &BTreeSet<String>) -> bool {
        self.score(tokens) >= 0.5
    }

    /// Tree depth (longest path), for diagnostics.
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 0,
                Node::Split {
                    present, absent, ..
                } => 1 + d(present).max(d(absent)),
            }
        }
        d(&self.root)
    }
}

/// A token-interned training corpus.
struct Interned<'a> {
    /// Distinct tokens in byte order: token id `i` is `vocab[i]`.
    vocab: Vec<&'a str>,
    /// Each flow's token ids, ascending.
    flows: Vec<Vec<u32>>,
}

/// Marks an id the current tree did not keep as a feature.
const NOT_KEPT: u32 = u32::MAX;

/// Dense per-id scratch, reused by every tree over one corpus. Between
/// trees every `present`/`present_pos` slot is zero and every `local`
/// slot is [`NOT_KEPT`].
struct Scratch {
    /// Root examples containing each id.
    present: Vec<u32>,
    /// Positive root examples containing each id.
    present_pos: Vec<u32>,
    /// Ids with a nonzero `present` count, in first-touch order.
    touched: Vec<u32>,
    /// Local feature index of each kept id.
    local: Vec<u32>,
}

impl Scratch {
    fn new(vocab_len: usize) -> Self {
        Scratch {
            present: vec![0; vocab_len],
            present_pos: vec![0; vocab_len],
            touched: Vec::new(),
            local: vec![NOT_KEPT; vocab_len],
        }
    }
}

impl<'a> Interned<'a> {
    /// Intern deduplicated token sets.
    fn new(sets: &[Vec<&'a str>]) -> Self {
        // Provisional ids in first-seen order (no map iteration), then
        // renumbered by byte order so id order is token order.
        let mut seen: HashMap<&str, u32> = HashMap::new();
        let mut first_seen: Vec<&str> = Vec::new();
        let provisional: Vec<Vec<u32>> = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&tok| {
                        *seen.entry(tok).or_insert_with(|| {
                            first_seen.push(tok);
                            first_seen.len() as u32 - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let mut order: Vec<u32> = (0..first_seen.len() as u32).collect();
        order.sort_unstable_by_key(|&p| first_seen[p as usize]);
        let mut rank = vec![0u32; order.len()];
        for (id, &p) in order.iter().enumerate() {
            rank[p as usize] = id as u32;
        }
        let flows = provisional
            .into_iter()
            .map(|mut ids| {
                for id in &mut ids {
                    *id = rank[*id as usize];
                }
                ids.sort_unstable();
                ids
            })
            .collect();
        Interned {
            vocab: order.iter().map(|&p| first_seen[p as usize]).collect(),
            flows,
        }
    }

    /// Grow one tree over `(token ids, label)` examples.
    fn train_tree(
        &self,
        examples: &[(&[u32], bool)],
        config: &TreeConfig,
        scratch: &mut Scratch,
    ) -> DecisionTree {
        let features = select_features(examples, config.max_features, scratch);

        for (local, &id) in features.iter().enumerate() {
            scratch.local[id as usize] = local as u32;
        }
        // One spare word when nothing is kept keeps the row stride
        // nonzero; the tree is then a single leaf anyway.
        let words = features.len().div_ceil(64).max(1);
        let mut bits = vec![0u64; examples.len() * words];
        for ((ids, _), row) in examples.iter().zip(bits.chunks_mut(words)) {
            for &id in *ids {
                let local = scratch.local[id as usize];
                if local != NOT_KEPT {
                    row[local as usize / 64] |= 1 << (local % 64);
                }
            }
        }
        for &id in &features {
            scratch.local[id as usize] = NOT_KEPT;
        }

        let grower = Grower {
            bits: &bits,
            words,
            labels: examples.iter().map(|&(_, label)| label).collect(),
            tokens: features.iter().map(|&id| self.vocab[id as usize]).collect(),
            config,
        };
        let indices: Vec<u32> = (0..examples.len() as u32).collect();
        DecisionTree {
            root: grower.grow(&indices, 0),
            trained_on: examples.len(),
        }
    }
}

/// Count root statistics into `scratch` and return the ids to grow on,
/// ascending: the `k` with the highest root information gain (gain
/// descending, then id ascending), or every present id when `k` is 0 or
/// the vocabulary already fits. Leaves `scratch` zeroed.
fn select_features(examples: &[(&[u32], bool)], k: usize, scratch: &mut Scratch) -> Vec<u32> {
    for &(ids, label) in examples {
        for &id in ids {
            let slot = &mut scratch.present[id as usize];
            if *slot == 0 {
                scratch.touched.push(id);
            }
            *slot += 1;
            if label {
                scratch.present_pos[id as usize] += 1;
            }
        }
    }
    let total = examples.len();
    let pos_total = examples.iter().filter(|&&(_, label)| label).count();
    let mut kept = if k == 0 || scratch.touched.len() <= k {
        scratch.touched.clone()
    } else {
        let base = entropy(pos_total, total - pos_total);
        let mut scored: Vec<(f64, u32)> = scratch
            .touched
            .iter()
            .map(|&id| {
                let i = id as usize;
                (
                    scratch.present[i] as usize,
                    scratch.present_pos[i] as usize,
                    id,
                )
            })
            .filter(|&(present, _, _)| present < total)
            .map(|(present, present_pos, id)| {
                (
                    base - split_entropy(total, pos_total, present, present_pos),
                    id,
                )
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(k).map(|(_, id)| id).collect()
    };
    for &id in &scratch.touched {
        scratch.present[id as usize] = 0;
        scratch.present_pos[id as usize] = 0;
    }
    scratch.touched.clear();
    kept.sort_unstable();
    kept
}

/// One tree's examples as fixed-stride bitsets over its kept features.
struct Grower<'a> {
    /// Example `i` occupies `bits[i * words..(i + 1) * words]`; bit `f`
    /// is set when the example carries local feature `f`.
    bits: &'a [u64],
    words: usize,
    labels: Vec<bool>,
    /// Token of each local feature.
    tokens: Vec<&'a str>,
    config: &'a TreeConfig,
}

impl Grower<'_> {
    fn row(&self, i: u32) -> &[u64] {
        let start = i as usize * self.words;
        &self.bits[start..start + self.words]
    }

    fn grow(&self, indices: &[u32], depth: usize) -> Node {
        let n = indices.len();
        let pos = indices.iter().filter(|&&i| self.labels[i as usize]).count();
        let neg = n - pos;
        let p_here = if n == 0 { 0.0 } else { pos as f64 / n as f64 };

        if depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || pos == 0
            || neg == 0
        {
            return Node::Leaf(p_here);
        }

        let mut present = vec![0u32; self.tokens.len()];
        let mut present_pos = vec![0u32; self.tokens.len()];
        for &i in indices {
            let label = self.labels[i as usize];
            for (w, &word) in self.row(i).iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let f = w * 64 + word.trailing_zeros() as usize;
                    present[f] += 1;
                    present_pos[f] += u32::from(label);
                    word &= word - 1;
                }
            }
        }

        // Ascending local order is ascending token order, and the strict
        // `>` keeps the first of equal gains, as the reference does.
        let base = entropy(pos, neg);
        let mut best: Option<(usize, f64)> = None;
        for (f, (&present, &present_pos)) in present.iter().zip(&present_pos).enumerate() {
            let present = present as usize;
            if present == 0 || present == n {
                continue;
            }
            let gain = base - split_entropy(n, pos, present, present_pos as usize);
            if gain > self.config.min_gain && best.is_none_or(|(_, g)| gain > g) {
                best = Some((f, gain));
            }
        }

        let Some((f, _)) = best else {
            return Node::Leaf(p_here);
        };
        let (word, mask) = (f / 64, 1u64 << (f % 64));
        let (with, without): (Vec<u32>, Vec<u32>) = indices
            .iter()
            .partition(|&&i| self.row(i)[word] & mask != 0);
        Node::Split {
            token: self.tokens[f].to_string(),
            present: Box::new(self.grow(&with, depth + 1)),
            absent: Box::new(self.grow(&without, depth + 1)),
        }
    }
}

/// The pre-interning trainer, retained as the differential oracle for
/// [`DecisionTree::train`] and [`ReconTrainer::train`]: every tree clones
/// its examples' token sets and counts in `BTreeMap<&str, _>`s.
#[cfg(any(test, feature = "reference"))]
impl DecisionTree {
    /// Train over `BTreeSet<String>` examples directly (the reference
    /// twin of [`DecisionTree::train`]).
    pub fn train_reference(examples: &[(BTreeSet<String>, bool)], config: &TreeConfig) -> Self {
        // Feature selection: rank tokens by information gain at the root
        // and restrict splits to the top `max_features`.
        let vocabulary = select_features_reference(examples, config.max_features);
        let filtered: Vec<(BTreeSet<String>, bool)> = match &vocabulary {
            Some(vocab) => examples
                .iter()
                .map(|(tokens, label)| {
                    (
                        tokens
                            .iter()
                            .filter(|t| vocab.contains(*t))
                            .cloned()
                            .collect(),
                        *label,
                    )
                })
                .collect(),
            None => examples.to_vec(),
        };
        let indices: Vec<usize> = (0..filtered.len()).collect();
        let root = Self::grow_reference(&filtered, &indices, config, 0);
        DecisionTree {
            root,
            trained_on: examples.len(),
        }
    }

    fn grow_reference(
        examples: &[(BTreeSet<String>, bool)],
        indices: &[usize],
        config: &TreeConfig,
        depth: usize,
    ) -> Node {
        let pos = indices.iter().filter(|&&i| examples[i].1).count();
        let neg = indices.len() - pos;
        let p_here = if indices.is_empty() {
            0.0
        } else {
            pos as f64 / indices.len() as f64
        };

        if depth >= config.max_depth
            || indices.len() < config.min_samples_split
            || pos == 0
            || neg == 0
        {
            return Node::Leaf(p_here);
        }

        // Candidate features: tokens present in at least one in-node
        // example but not all (otherwise no split is possible).
        let mut counts: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for &i in indices {
            for tok in &examples[i].0 {
                let e = counts.entry(tok.as_str()).or_insert((0, 0));
                e.0 += 1;
                if examples[i].1 {
                    e.1 += 1;
                }
            }
        }

        let base = entropy(pos, neg);
        let mut best: Option<(&str, f64)> = None;
        for (tok, &(present_total, present_pos)) in &counts {
            if present_total == 0 || present_total == indices.len() {
                continue;
            }
            let absent_total = indices.len() - present_total;
            let absent_pos = pos - present_pos;
            let h = (present_total as f64 / indices.len() as f64)
                * entropy(present_pos, present_total - present_pos)
                + (absent_total as f64 / indices.len() as f64)
                    * entropy(absent_pos, absent_total - absent_pos);
            let gain = base - h;
            if gain > config.min_gain && best.is_none_or(|(_, g)| gain > g) {
                best = Some((tok, gain));
            }
        }

        let Some((token, _)) = best else {
            return Node::Leaf(p_here);
        };
        let token = token.to_string();

        let (with, without): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| examples[i].0.contains(&token));
        let present = Self::grow_reference(examples, &with, config, depth + 1);
        let absent = Self::grow_reference(examples, &without, config, depth + 1);
        Node::Split {
            token,
            present: Box::new(present),
            absent: Box::new(absent),
        }
    }
}

/// Rank every token by root information gain and keep the top `k`
/// (`None` when no cap applies or the vocabulary is already small).
#[cfg(any(test, feature = "reference"))]
fn select_features_reference(
    examples: &[(BTreeSet<String>, bool)],
    k: usize,
) -> Option<BTreeSet<String>> {
    if k == 0 {
        return None;
    }
    let total = examples.len();
    let pos_total = examples.iter().filter(|(_, l)| *l).count();
    let mut counts: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (tokens, label) in examples {
        for tok in tokens {
            let e = counts.entry(tok.as_str()).or_insert((0, 0));
            e.0 += 1;
            if *label {
                e.1 += 1;
            }
        }
    }
    if counts.len() <= k {
        return None;
    }
    let base = entropy(pos_total, total - pos_total);
    let mut scored: Vec<(f64, &str)> = counts
        .iter()
        .filter(|(_, (present, _))| *present > 0 && *present < total)
        .map(|(tok, &(present, present_pos))| {
            let absent = total - present;
            let absent_pos = pos_total - present_pos;
            let h = (present as f64 / total as f64) * entropy(present_pos, present - present_pos)
                + (absent as f64 / total as f64) * entropy(absent_pos, absent - absent_pos);
            (base - h, *tok)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(b.1)));
    Some(
        scored
            .into_iter()
            .take(k)
            .map(|(_, t)| t.to_string())
            .collect(),
    )
}

/// One labelled training flow.
#[derive(Clone, Debug)]
pub struct TrainingFlow {
    /// Destination domain (registrable), the per-domain model key.
    pub domain: String,
    /// Raw flow text.
    pub text: String,
    /// PII types actually present (labels from the ground-truth matcher).
    pub labels: BTreeSet<PiiType>,
}

/// Minimum flows a domain needs for its own models; below this the
/// general model handles it (ReCon uses the same fallback structure).
pub const MIN_DOMAIN_FLOWS: usize = 8;

/// Bit of `t` in a label mask (declaration order, as in [`PiiType::ALL`]).
fn type_bit(t: PiiType) -> u16 {
    1 << t as u16
}

/// Accumulates labelled flows and trains the ensemble.
#[derive(Default)]
pub struct ReconTrainer {
    flows: Vec<TrainingFlow>,
}

impl ReconTrainer {
    /// An empty trainer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a labelled flow.
    pub fn add(&mut self, flow: TrainingFlow) {
        self.flows.push(flow);
    }

    /// Number of accumulated training flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the trainer has no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Train per-domain and general models on the interned corpus (see
    /// the module docs).
    pub fn train(&self, config: &TreeConfig) -> ReconClassifier {
        let token_sets: Vec<Vec<String>> = self.flows.iter().map(|f| token_set(&f.text)).collect();
        let sets: Vec<Vec<&str>> = token_sets
            .iter()
            .map(|set| set.iter().map(String::as_str).collect())
            .collect();
        let corpus = Interned::new(&sets);
        let masks: Vec<u16> = self
            .flows
            .iter()
            .map(|f| f.labels.iter().fold(0, |mask, &t| mask | type_bit(t)))
            .collect();
        let mut scratch = Scratch::new(corpus.vocab.len());
        self.assemble(|indices, t| {
            let bit = type_bit(t);
            let examples: Vec<(&[u32], bool)> = indices
                .iter()
                .map(|&i| (corpus.flows[i].as_slice(), masks[i] & bit != 0))
                .collect();
            corpus.train_tree(&examples, config, &mut scratch)
        })
    }

    /// The pre-interning trainer (reference twin of [`Self::train`]):
    /// every tree clones its examples' `BTreeSet<String>` token sets.
    #[cfg(any(test, feature = "reference"))]
    pub fn train_reference(&self, config: &TreeConfig) -> ReconClassifier {
        let tokenized: Vec<BTreeSet<String>> = self
            .flows
            .iter()
            .map(|f| token_set(&f.text).into_iter().collect())
            .collect();
        self.assemble(|indices, t| {
            let examples: Vec<(BTreeSet<String>, bool)> = indices
                .iter()
                .map(|&i| (tokenized[i].clone(), self.flows[i].labels.contains(&t)))
                .collect();
            DecisionTree::train_reference(&examples, config)
        })
    }

    /// Lay out the ensemble: a tree per (domain, type) for every domain
    /// with at least [`MIN_DOMAIN_FLOWS`] flows, plus a general tree per
    /// type over every flow. `grow` trains one tree over flow indices;
    /// it is only called when both classes are present.
    fn assemble(&self, mut grow: impl FnMut(&[usize], PiiType) -> DecisionTree) -> ReconClassifier {
        let mut by_domain: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, flow) in self.flows.iter().enumerate() {
            by_domain.entry(&flow.domain).or_default().push(i);
        }

        let mut train_set = |indices: &[usize], t: PiiType| -> Option<DecisionTree> {
            let positives = indices
                .iter()
                .filter(|&&i| self.flows[i].labels.contains(&t))
                .count();
            // Need both classes to learn anything.
            if positives == 0 || positives == indices.len() {
                return None;
            }
            Some(grow(indices, t))
        };

        let mut domain_models: BTreeMap<String, BTreeMap<PiiType, DecisionTree>> = BTreeMap::new();
        for (domain, indices) in &by_domain {
            if indices.len() < MIN_DOMAIN_FLOWS {
                continue;
            }
            let mut per_type = BTreeMap::new();
            for t in PiiType::ALL {
                if let Some(tree) = train_set(indices, t) {
                    per_type.insert(t, tree);
                }
            }
            if !per_type.is_empty() {
                domain_models.insert(domain.to_string(), per_type);
            }
        }

        let all: Vec<usize> = (0..self.flows.len()).collect();
        let mut general = BTreeMap::new();
        for t in PiiType::ALL {
            if let Some(tree) = train_set(&all, t) {
                general.insert(t, tree);
            }
        }

        ReconClassifier::from_ensemble(Ensemble {
            domain_models,
            general,
        })
    }
}

/// The trees of a trained ensemble: per-domain trees with a general
/// fallback. This is the classifier's serialized form.
#[derive(Debug, Default)]
struct Ensemble {
    domain_models: BTreeMap<String, BTreeMap<PiiType, DecisionTree>>,
    general: BTreeMap<PiiType, DecisionTree>,
}

/// The trained ensemble: per-domain trees with a general fallback, and
/// their compiled inference form. Cloning shares both.
#[derive(Clone, Debug, Default)]
pub struct ReconClassifier {
    ensemble: Arc<Ensemble>,
    compiled: Arc<CompiledEnsemble>,
}

impl ReconClassifier {
    fn from_ensemble(ensemble: Ensemble) -> Self {
        let compiled = Arc::new(CompiledEnsemble::new(&ensemble));
        ReconClassifier {
            ensemble: Arc::new(ensemble),
            compiled,
        }
    }

    /// Predict which PII types a flow to `domain` carries.
    pub fn predict(&self, domain: &str, text: &str) -> Vec<PiiType> {
        self.predict_view(domain, &FlowView::new(text))
    }

    /// [`Self::predict`] over an already tokenized flow.
    pub(crate) fn predict_view(&self, domain: &str, view: &FlowView) -> Vec<PiiType> {
        self.compiled.predict(domain, view)
    }

    /// The pre-compilation inference, kept as the differential oracle
    /// for [`Self::predict`]: a `BTreeSet<String>` of the flow's tokens
    /// and a string-set lookup per tree node.
    #[cfg(any(test, feature = "reference"))]
    pub fn predict_reference(&self, domain: &str, text: &str) -> Vec<PiiType> {
        let Ensemble {
            domain_models,
            general,
        } = &*self.ensemble;
        let tokens: BTreeSet<String> = token_set(text).into_iter().collect();
        let mut out: Vec<PiiType> = Vec::new();
        match domain_models.get(domain) {
            Some(models) => {
                for (t, tree) in models {
                    if tree.predict(&tokens) {
                        out.push(*t);
                    }
                }
                // Types the domain model never learned fall back to the
                // general model.
                for (t, tree) in general {
                    if !models.contains_key(t) && tree.predict(&tokens) {
                        out.push(*t);
                    }
                }
            }
            None => {
                for (t, tree) in general {
                    if tree.predict(&tokens) {
                        out.push(*t);
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Number of domains with dedicated models.
    pub fn domain_model_count(&self) -> usize {
        self.ensemble.domain_models.len()
    }
}

/// FxHash: a multiply-rotate hash for the short token keys of the
/// feature table, where SipHash would cost more than the lookup. The
/// table's keys are the classifier's own split tokens, fixed when it is
/// compiled; flow tokens only probe it, so no flow can add colliding
/// keys.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]));
            self.add(word);
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A flattened tree node; children are indices into
/// [`CompiledEnsemble::nodes`].
#[derive(Clone, Copy, Debug)]
enum FlatNode {
    /// The tree's verdict at the 0.5 threshold.
    Leaf(bool),
    /// Split on feature `feature`.
    Split {
        feature: u32,
        present: u32,
        absent: u32,
    },
}

/// An ensemble compiled for inference (see the module docs).
#[derive(Debug, Default)]
struct CompiledEnsemble {
    /// Split token → feature id.
    features: FxMap<Box<str>, u32>,
    /// Every tree's nodes.
    nodes: Vec<FlatNode>,
    /// Per domain with models: the `(type, root)` pairs to evaluate,
    /// general fallbacks included, in type order.
    domains: FxMap<Box<str>, Vec<(PiiType, u32)>>,
    /// The general model's `(type, root)` pairs, in type order.
    general: Vec<(PiiType, u32)>,
}

impl CompiledEnsemble {
    fn new(ensemble: &Ensemble) -> Self {
        let mut compiled = CompiledEnsemble::default();
        let general: Vec<(PiiType, u32)> = ensemble
            .general
            .iter()
            .map(|(&t, tree)| (t, compiled.flatten(&tree.root)))
            .collect();
        for (domain, models) in &ensemble.domain_models {
            let mut roots: Vec<(PiiType, u32)> = models
                .iter()
                .map(|(&t, tree)| (t, compiled.flatten(&tree.root)))
                .collect();
            roots.extend(general.iter().filter(|(t, _)| !models.contains_key(t)));
            roots.sort_by_key(|&(t, _)| t);
            compiled.domains.insert(domain.as_str().into(), roots);
        }
        compiled.general = general;
        compiled
    }

    /// Append `node`'s subtree to `nodes`; returns its index.
    fn flatten(&mut self, node: &Node) -> u32 {
        let at = self.nodes.len();
        match node {
            Node::Leaf(p) => self.nodes.push(FlatNode::Leaf(*p >= 0.5)),
            Node::Split {
                token,
                present,
                absent,
            } => {
                let next_id = self.features.len() as u32;
                let feature = *self
                    .features
                    .entry(token.as_str().into())
                    .or_insert(next_id);
                // Reserve the slot, then fill in the children's indices.
                self.nodes.push(FlatNode::Leaf(false));
                let present = self.flatten(present);
                let absent = self.flatten(absent);
                self.nodes[at] = FlatNode::Split {
                    feature,
                    present,
                    absent,
                };
            }
        }
        at as u32
    }

    fn predict(&self, domain: &str, view: &FlowView) -> Vec<PiiType> {
        let roots = self.domains.get(domain).unwrap_or(&self.general);
        if roots.is_empty() {
            return Vec::new();
        }
        let mut bits = vec![0u64; self.features.len().div_ceil(64)];
        for token in view.tokens() {
            if let Some(&f) = self.features.get(token) {
                bits[f as usize / 64] |= 1 << (f % 64);
            }
        }
        roots
            .iter()
            .filter(|&&(_, root)| {
                let mut at = root;
                loop {
                    match self.nodes[at as usize] {
                        FlatNode::Leaf(verdict) => return verdict,
                        FlatNode::Split {
                            feature,
                            present,
                            absent,
                        } => {
                            let set = bits[feature as usize / 64] & 1 << (feature % 64) != 0;
                            at = if set { present } else { absent };
                        }
                    }
                }
            })
            .map(|&(t, _)| t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn tree_learns_single_feature() {
        // Label = presence of "email".
        let ex: Vec<(BTreeSet<String>, bool)> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    (ts(&["get", "email", "track"]), true)
                } else {
                    (ts(&["get", "page", "track"]), false)
                }
            })
            .collect();
        let tree = DecisionTree::train(&ex, &TreeConfig::default());
        assert!(tree.predict(&ts(&["post", "email"])));
        assert!(!tree.predict(&ts(&["post", "page"])));
        assert!(tree.depth() >= 1);
        assert_eq!(tree.trained_on, 20);
    }

    #[test]
    fn tree_learns_conjunction() {
        // Positive only when both "lat" and "lon" are present.
        let mut ex = Vec::new();
        for _ in 0..10 {
            ex.push((ts(&["lat", "lon", "v2"]), true));
            ex.push((ts(&["lat", "v2"]), false));
            ex.push((ts(&["lon", "v2"]), false));
            ex.push((ts(&["v2"]), false));
        }
        let tree = DecisionTree::train(&ex, &TreeConfig::default());
        assert!(tree.predict(&ts(&["lat", "lon"])));
        assert!(!tree.predict(&ts(&["lat"])));
        assert!(!tree.predict(&ts(&["lon"])));
    }

    #[test]
    fn pure_node_stops_growing() {
        let ex = vec![(ts(&["a"]), true), (ts(&["b"]), true)];
        let tree = DecisionTree::train(&ex, &TreeConfig::default());
        assert_eq!(tree.depth(), 0);
        assert!(tree.predict(&ts(&["anything"])));
    }

    #[test]
    fn depth_limit_is_respected() {
        // Parity-ish labels force deep trees; cap must hold.
        let mut ex = Vec::new();
        for i in 0..64u32 {
            let toks: Vec<String> = (0..6)
                .filter(|b| i >> b & 1 == 1)
                .map(|b| format!("f{b}"))
                .collect();
            let set: BTreeSet<String> = toks.into_iter().collect();
            ex.push((set, i.count_ones() % 2 == 0));
        }
        let cfg = TreeConfig {
            max_depth: 3,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::train(&ex, &cfg);
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn feature_cap_keeps_the_informative_token() {
        // 600 noise tokens + one perfectly predictive token: with a tiny
        // feature cap the tree must still find the signal.
        let mut ex: Vec<(BTreeSet<String>, bool)> = Vec::new();
        for i in 0..40 {
            let mut set = ts(&["get", "http"]);
            for j in 0..15 {
                set.insert(format!("noise-{}-{}", i, j));
            }
            let positive = i % 2 == 0;
            if positive {
                set.insert("email".into());
            }
            ex.push((set, positive));
        }
        let cfg = TreeConfig {
            max_features: 8,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::train(&ex, &cfg);
        assert!(tree.predict(&ts(&["email"])));
        assert!(!tree.predict(&ts(&["noise-3-1"])));
    }

    #[test]
    fn no_cap_matches_capped_on_small_vocab() {
        let ex: Vec<(BTreeSet<String>, bool)> = (0..20)
            .map(|i| {
                (
                    if i % 2 == 0 {
                        ts(&["lat", "v"])
                    } else {
                        ts(&["v"])
                    },
                    i % 2 == 0,
                )
            })
            .collect();
        let capped = DecisionTree::train(
            &ex,
            &TreeConfig {
                max_features: 4,
                ..Default::default()
            },
        );
        let uncapped = DecisionTree::train(
            &ex,
            &TreeConfig {
                max_features: 0,
                ..Default::default()
            },
        );
        for probe in [ts(&["lat"]), ts(&["v"]), ts(&["other"])] {
            assert_eq!(capped.predict(&probe), uncapped.predict(&probe));
        }
    }

    #[test]
    fn ensemble_prefers_domain_model() {
        let mut trainer = ReconTrainer::new();
        // Domain A uses an idiosyncratic key "zx" for coordinates.
        for i in 0..12 {
            let has = i % 2 == 0;
            trainer.add(TrainingFlow {
                domain: "tracker-a.com".into(),
                text: if has {
                    format!("zx=42.3{i}&v=1")
                } else {
                    format!("v=1&page={i}")
                },
                labels: if has {
                    [PiiType::Location].into_iter().collect()
                } else {
                    BTreeSet::new()
                },
            });
        }
        // General corpus: "email" token means Email.
        for i in 0..12 {
            let has = i % 2 == 0;
            trainer.add(TrainingFlow {
                domain: format!("misc-{i}.com"),
                text: if has {
                    "email=x@y.com".into()
                } else {
                    "q=news".into()
                },
                labels: if has {
                    [PiiType::Email].into_iter().collect()
                } else {
                    BTreeSet::new()
                },
            });
        }
        let clf = trainer.train(&TreeConfig::default());
        assert!(clf.domain_model_count() >= 1);
        assert_eq!(
            clf.predict("tracker-a.com", "zx=47.61&v=9"),
            vec![PiiType::Location]
        );
        // Unknown domain falls back to the general model.
        assert_eq!(
            clf.predict("never-seen.com", "email=someone@else.org"),
            vec![PiiType::Email]
        );
    }

    #[test]
    fn domain_model_falls_back_per_type() {
        let mut trainer = ReconTrainer::new();
        for i in 0..12 {
            let has = i % 2 == 0;
            trainer.add(TrainingFlow {
                domain: "geo.com".into(),
                text: if has {
                    format!("lat=1.{i}&lon=2.{i}")
                } else {
                    format!("ping={i}")
                },
                labels: if has {
                    [PiiType::Location].into_iter().collect()
                } else {
                    BTreeSet::new()
                },
            });
        }
        for i in 0..12 {
            let has = i % 2 == 0;
            trainer.add(TrainingFlow {
                domain: format!("m{i}.com"),
                text: if has {
                    "email=x@y.com".into()
                } else {
                    "q=1".into()
                },
                labels: if has {
                    [PiiType::Email].into_iter().collect()
                } else {
                    BTreeSet::new()
                },
            });
        }
        let clf = trainer.train(&TreeConfig::default());
        // A flow to geo.com carrying an email key: the domain model has no
        // Email tree, the general one catches it.
        let types = clf.predict("geo.com", "email=x@y.com&lat=1.5&lon=2.5");
        assert!(types.contains(&PiiType::Email));
        assert!(types.contains(&PiiType::Location));
    }

    #[test]
    fn empty_trainer_yields_inert_classifier() {
        let clf = ReconTrainer::new().train(&TreeConfig::default());
        assert!(clf.predict("x.com", "email=a@b.com").is_empty());
        assert_eq!(clf.domain_model_count(), 0);
    }
}

appvsweb_json::impl_json!(struct TreeConfig { max_depth, min_samples_split, min_gain, max_features });
appvsweb_json::impl_json!(struct DecisionTree { root, trained_on });
appvsweb_json::impl_json!(struct Ensemble { domain_models, general });

// The classifier serializes as its trees (exactly the `Ensemble` JSON);
// the compiled form is derived again on parse, never stored.
// lint:allow(R2) delegates to the impl_json! Ensemble; a derived field has no impl_json! form
impl appvsweb_json::ToJson for ReconClassifier {
    fn to_json(&self) -> appvsweb_json::Json {
        appvsweb_json::ToJson::to_json(&*self.ensemble)
    }
}

// lint:allow(R2) delegates to the impl_json! Ensemble; a derived field has no impl_json! form
impl appvsweb_json::FromJson for ReconClassifier {
    fn from_json(v: &appvsweb_json::Json) -> Result<Self, appvsweb_json::JsonError> {
        <Ensemble as appvsweb_json::FromJson>::from_json(v).map(ReconClassifier::from_ensemble)
    }
}

// Node has a payload variant, so its JSON impls are written by hand in
// serde's externally-tagged shape: `{"Leaf": p}` / `{"Split": {...}}`.
// lint:allow(R2) impl_json! has no payload-enum form; shape reviewed against convert.rs
impl appvsweb_json::ToJson for Node {
    fn to_json(&self) -> appvsweb_json::Json {
        use appvsweb_json::Json;
        match self {
            Node::Leaf(p) => Json::Obj(vec![("Leaf".to_string(), p.to_json())]),
            Node::Split {
                token,
                present,
                absent,
            } => Json::Obj(vec![(
                "Split".to_string(),
                Json::Obj(vec![
                    ("token".to_string(), token.to_json()),
                    ("present".to_string(), present.to_json()),
                    ("absent".to_string(), absent.to_json()),
                ]),
            )]),
        }
    }
}

// lint:allow(R2) impl_json! has no payload-enum form; shape reviewed against convert.rs
impl appvsweb_json::FromJson for Node {
    fn from_json(v: &appvsweb_json::Json) -> Result<Self, appvsweb_json::JsonError> {
        use appvsweb_json::{Json, JsonError};
        if let Json::Obj(entries) = v {
            if let [(key, payload)] = entries.as_slice() {
                match key.as_str() {
                    "Leaf" => {
                        return Ok(Node::Leaf(appvsweb_json::FromJson::from_json(payload)?));
                    }
                    "Split" => {
                        return Ok(Node::Split {
                            token: payload.field("token")?,
                            present: payload.field("present")?,
                            absent: payload.field("absent")?,
                        });
                    }
                    _ => {}
                }
            }
        }
        Err(JsonError::schema(format!(
            "expected Node, got {}",
            v.kind()
        )))
    }
}
