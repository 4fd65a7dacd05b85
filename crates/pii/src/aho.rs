//! Aho–Corasick multi-pattern string search.
//!
//! The ground-truth matcher searches every flow for several hundred
//! candidate strings (every encoding of every PII value). Scanning each
//! candidate independently is O(patterns × text); this automaton finds
//! all matches in a single pass over the text — the same reason
//! production interception pipelines (and ReCon's flow scanner) compile
//! their dictionaries into automata.
//!
//! The implementation is the classic goto/fail construction with
//! breadth-first failure links and output merging, stored as a
//! *contiguous NFA* over *byte classes*. Every byte that occurs in some
//! pattern gets its own class, and all the bytes no pattern uses share
//! class 0. States live in one `u32` table in breadth-first order and
//! are named by their offset in it:
//!
//! * the root and its children (depth ≤ `DENSE_DEPTH`) get a dense row
//!   with one transition word per class, already resolved through the
//!   failure links, so a step from them is one load;
//! * every deeper state holds only its own goto edges (a sparse list)
//!   plus its failure link; a byte with no edge follows failure links
//!   until a state has an edge for it or a dense row answers.
//!
//! Each transition word holds the target's offset with two flags in its
//! high bits, "output here" and "sparse", so the scan loop touches no
//! output storage on the (overwhelmingly common) non-matching byte and
//! tells a dense state from a sparse one without a second load.

/// High bit of a transition word: the target state has ≥1 output.
const OUT_FLAG: u32 = 1 << 31;
/// Next bit of a transition word: the target is a sparse state.
const SPARSE_FLAG: u32 = 1 << 30;
/// Mask recovering the target's offset from a transition word.
const STATE_MASK: u32 = SPARSE_FLAG - 1;
/// Construction-time marker for a missing trie edge.
const NO_EDGE: u32 = u32::MAX;
/// Deepest states that get a dense row. A walk over flow text spends
/// nearly all its steps at the root or one byte into a pattern, and the
/// root has a child for almost every class, so dense rows there keep the
/// common step a single load. Below that, dictionary patterns (digests
/// above all) share few prefixes: nearly every state has one child, and
/// a full row per state would spend ~50 words where a sparse one spends
/// four.
const DENSE_DEPTH: usize = 1;

/// A compiled multi-pattern automaton.
///
/// The ground-truth dictionaries of the paper grid (seed 2016) compile,
/// per layer, a case-insensitive automaton of 296–486 states over 34–46
/// byte classes (6–11 KB) and a byte-exact one of 2,580–2,985 states
/// over 52–62 classes (46–54 KB): MD5/SHA/base64 digests share almost
/// no prefixes, so nearly every state has one edge. A full byte-class
/// DFA spent a row on every state, 0.56–0.73 MB per byte-exact
/// automaton and 38.6 MB over the grid's 52 layers; this layout spends
/// 3.1 MB.
///
/// A sparse state at offset `s` is laid out as `[n, fail, classes…,
/// targets…]`: its edge count, its failure link (offset and sparse
/// flag), the classes
/// of its `n` edges packed four to a word (lowest byte first), and the
/// `n` transition words in the same order. Any state with outputs is
/// preceded by one word, the index of its output list.
#[derive(Clone, Debug)]
pub struct AhoCorasick {
    /// Byte → class. Class 0 holds every byte no pattern uses (unless
    /// patterns use all 256).
    classes: [u8; 256],
    /// Width of a dense row: the number of byte classes.
    stride: usize,
    /// Every state, breadth-first; dense rows first. A transition word
    /// holds the target's offset in this table (low bits),
    /// [`SPARSE_FLAG`] and [`OUT_FLAG`].
    table: Vec<u32>,
    /// A state with outputs is preceded in `table` by an index `i`: the
    /// pattern ids ending there (after output merging) are
    /// `out_ids[out_start[i]..out_start[i + 1]]`.
    out_start: Vec<u32>,
    out_ids: Vec<u32>,
    /// Number of automaton states.
    state_count: usize,
    /// Number of patterns the automaton was built from.
    pattern_count: usize,
}

/// One match: which pattern, ending where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Match {
    /// Index of the pattern in the input slice.
    pub pattern: u32,
    /// Byte offset one past the end of the match in the haystack.
    pub end: usize,
}

/// Assign byte classes: each byte that occurs in a pattern gets its own
/// class, in byte order; the unused bytes share class 0. Returns the
/// map and the number of classes.
fn byte_classes<P: AsRef<[u8]>>(patterns: &[P]) -> ([u8; 256], usize) {
    let mut used = [false; 256];
    for pat in patterns {
        for &b in pat.as_ref() {
            used[b as usize] = true;
        }
    }
    // With every byte in use there is nothing for class 0 to collect;
    // numbering from 0 keeps the largest class within a u8.
    let mut count = if used.iter().all(|&u| u) { 0 } else { 1 };
    let mut classes = [0u8; 256];
    for (class, _) in classes.iter_mut().zip(used).filter(|(_, u)| *u) {
        *class = count as u8;
        count += 1;
    }
    (classes, count)
}

/// One goto edge of the trie under construction.
struct Edge {
    class: u8,
    target: u32,
    /// The next edge out of the same state, or [`NO_EDGE`].
    next: u32,
}

/// The goto graph under construction: the root's edges in a dense
/// row, every other state's in a linked list of [`Edge`]s.
struct Trie {
    root: Vec<u32>,
    /// First edge out of each state, or [`NO_EDGE`] (unused for the root).
    first: Vec<u32>,
    edges: Vec<Edge>,
    /// Pattern ids ending at each state.
    outputs: Vec<Vec<u32>>,
}

impl Trie {
    fn build<P: AsRef<[u8]>>(patterns: &[P], classes: &[u8; 256], stride: usize) -> Self {
        let mut trie = Trie {
            root: vec![NO_EDGE; stride],
            first: vec![NO_EDGE],
            edges: Vec::new(),
            outputs: vec![Vec::new()],
        };
        for (id, pat) in patterns.iter().enumerate() {
            let bytes = pat.as_ref();
            if bytes.is_empty() {
                continue;
            }
            let mut state = 0;
            for &b in bytes {
                let class = classes[b as usize];
                state = match trie.goto(state, class) {
                    Some(next) => next,
                    None => trie.add_child(state, class),
                };
            }
            trie.outputs[state as usize].push(id as u32);
        }
        trie
    }

    fn len(&self) -> usize {
        self.first.len()
    }

    fn goto(&self, state: u32, class: u8) -> Option<u32> {
        if state == 0 {
            let target = self.root[class as usize];
            return (target != NO_EDGE).then_some(target);
        }
        self.children(state)
            .find(|&(c, _)| c == class)
            .map(|(_, target)| target)
    }

    fn add_child(&mut self, state: u32, class: u8) -> u32 {
        let child = self.len() as u32;
        self.first.push(NO_EDGE);
        self.outputs.push(Vec::new());
        if state == 0 {
            self.root[class as usize] = child;
        } else {
            let edge = self.edges.len() as u32;
            let next = std::mem::replace(&mut self.first[state as usize], edge);
            self.edges.push(Edge {
                class,
                target: child,
                next,
            });
        }
        child
    }

    /// `(class, target)` of each edge out of `state`.
    fn children(&self, state: u32) -> impl Iterator<Item = (u8, u32)> + '_ {
        let (root, mut edge) = if state == 0 {
            (&self.root[..], NO_EDGE)
        } else {
            (&[][..], self.first[state as usize])
        };
        let dense = root
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != NO_EDGE)
            .map(|(c, &t)| (c as u8, t));
        let listed = std::iter::from_fn(move || {
            let e = self.edges.get(edge as usize)?;
            edge = e.next;
            Some((e.class, e.target))
        });
        dense.chain(listed)
    }

    /// Breadth-first pass: the states in BFS order, each one's depth
    /// and failure link.
    fn link(&self) -> (Vec<u32>, Vec<usize>, Vec<u32>) {
        let mut order = vec![0u32];
        let mut depth = vec![0usize; self.len()];
        let mut fail = vec![0u32; self.len()];
        let mut next = 0;
        while let Some(&state) = order.get(next) {
            next += 1;
            for (class, child) in self.children(state) {
                order.push(child);
                depth[child as usize] = depth[state as usize] + 1;
                if state == 0 {
                    continue;
                }
                let mut f = fail[state as usize];
                fail[child as usize] = loop {
                    if let Some(target) = self.goto(f, class) {
                        break target;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = fail[f as usize];
                };
            }
        }
        (order, depth, fail)
    }
}

/// Output lists under construction: the pattern ids of the `i`-th
/// state with outputs are `ids[start[i]..start[i + 1]]`.
struct OutputLists {
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl Default for OutputLists {
    fn default() -> Self {
        OutputLists {
            start: vec![0],
            ids: Vec::new(),
        }
    }
}

impl OutputLists {
    /// Record the outputs of the state about to be written to `table`:
    /// a state with any is preceded by its list's index.
    fn prefix(&mut self, table: &mut Vec<u32>, ids: &[u32]) {
        if !ids.is_empty() {
            table.push(self.start.len() as u32 - 1);
            self.ids.extend_from_slice(ids);
            self.start.push(self.ids.len() as u32);
        }
    }

    fn finish(
        mut self,
        classes: [u8; 256],
        stride: usize,
        table: Vec<u32>,
        state_count: usize,
        pattern_count: usize,
    ) -> AhoCorasick {
        self.start.shrink_to_fit();
        self.ids.shrink_to_fit();
        AhoCorasick {
            classes,
            stride,
            table,
            out_start: self.start,
            out_ids: self.ids,
            state_count,
            pattern_count,
        }
    }
}

impl AhoCorasick {
    /// Build an automaton over `patterns`. Empty patterns are permitted
    /// but never match. Matching is byte-exact; callers wanting
    /// case-insensitivity normalize both sides beforehand.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        let (classes, stride) = byte_classes(patterns);
        let mut trie = Trie::build(patterns, &classes, stride);
        let (order, depth, fail) = trie.link();
        let dense = |s: u32| depth[s as usize] <= DENSE_DEPTH;

        // Merge outputs down the failure links, shallowest first, so a
        // state's failure link is complete before the state inherits it.
        let mut outputs = std::mem::take(&mut trie.outputs);
        for &s in &order[1..] {
            let inherited = outputs[fail[s as usize] as usize].clone();
            outputs[s as usize].extend(inherited);
        }

        // Offsets, breadth-first: the dense rows come first. A state
        // with outputs is preceded by its index into the output lists.
        let mut offset = vec![0u32; trie.len()];
        let mut len = 0usize;
        for &s in &order {
            len += usize::from(!outputs[s as usize].is_empty());
            offset[s as usize] = len as u32;
            len += if dense(s) {
                stride
            } else {
                let n = trie.children(s).count();
                2 + n.div_ceil(4) + n
            };
        }
        // Dictionary automata are bounded (~3k states, ~20k words), nowhere near 2^31
        assert!(len < STATE_MASK as usize, "automaton too large");
        // A state as a walk holds it (offset and sparse flag), and as a
        // transition word names it (plus the output flag).
        let state = |t: u32| offset[t as usize] | if dense(t) { 0 } else { SPARSE_FLAG };
        let word = |t: u32| {
            let flag = if outputs[t as usize].is_empty() {
                0
            } else {
                OUT_FLAG
            };
            state(t) | flag
        };

        let mut table: Vec<u32> = Vec::with_capacity(len);
        let mut lists = OutputLists::default();
        for &s in &order {
            lists.prefix(&mut table, &outputs[s as usize]);
            if dense(s) {
                // A dense row resolves every class: the state's own
                // edges, else its failure link's (dense, shallower,
                // already written) row; the root's sends them home.
                let row = table.len();
                if s == 0 {
                    table.resize(row + stride, 0);
                } else {
                    let f = offset[fail[s as usize] as usize] as usize;
                    table.extend_from_within(f..f + stride);
                }
                for (class, child) in trie.children(s) {
                    table[row + class as usize] = word(child);
                }
            } else {
                let n = trie.children(s).count();
                table.push(n as u32);
                table.push(state(fail[s as usize]));
                let packed = table.len();
                table.resize(packed + n.div_ceil(4), 0);
                for (i, (class, child)) in trie.children(s).enumerate() {
                    table[packed + i / 4] |= (class as u32) << (8 * (i % 4));
                    table.push(word(child));
                }
            }
        }
        debug_assert_eq!(table.len(), len, "layout and offsets disagree");
        lists.finish(classes, stride, table, order.len(), patterns.len())
    }

    /// The dense 256-column construction, kept as a differential
    /// oracle: the same goto/fail algorithm compiled to a full DFA
    /// indexed by raw bytes, every state a dense row under the identity
    /// class map.
    pub fn new_reference<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        let mut next: Vec<[u32; 256]> = vec![[u32::MAX; 256]];
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new()];
        for (id, pat) in patterns.iter().enumerate() {
            let bytes = pat.as_ref();
            if bytes.is_empty() {
                continue;
            }
            let mut state = 0usize;
            for &b in bytes {
                let slot = next[state][b as usize];
                state = if slot == u32::MAX {
                    next.push([u32::MAX; 256]);
                    outputs.push(Vec::new());
                    let new_state = (next.len() - 1) as u32;
                    next[state][b as usize] = new_state;
                    new_state as usize
                } else {
                    slot as usize
                };
            }
            outputs[state].push(id as u32);
        }

        let mut fail = vec![0u32; next.len()];
        let mut queue = std::collections::VecDeque::new();
        if let Some(root) = next.first_mut() {
            #[allow(clippy::needless_range_loop)]
            for b in 0..256 {
                let s = root[b];
                if s == u32::MAX {
                    root[b] = 0;
                } else {
                    fail[s as usize] = 0;
                    queue.push_back(s as usize);
                }
            }
        }
        while let Some(state) = queue.pop_front() {
            #[allow(clippy::needless_range_loop)]
            for b in 0..256 {
                let child = next[state][b];
                let fallback = next[fail[state] as usize][b];
                if child == u32::MAX {
                    next[state][b] = fallback;
                } else {
                    fail[child as usize] = fallback;
                    let inherited = outputs[fallback as usize].clone();
                    outputs[child as usize].extend(inherited);
                    queue.push_back(child as usize);
                }
            }
        }

        let mut offset = Vec::with_capacity(next.len());
        let mut len = 0usize;
        for ids in &outputs {
            len += usize::from(!ids.is_empty());
            offset.push(len as u32);
            len += 256;
        }
        // The oracle runs on test-sized dictionaries, nowhere near 2^31 words
        assert!(len < STATE_MASK as usize, "automaton too large");
        let mut table = Vec::with_capacity(len);
        let mut lists = OutputLists::default();
        for (row, ids) in next.iter().zip(&outputs) {
            lists.prefix(&mut table, ids);
            table.extend(row.iter().map(|&t| {
                let flag = if outputs[t as usize].is_empty() {
                    0
                } else {
                    OUT_FLAG
                };
                offset[t as usize] | flag
            }));
        }
        let mut identity = [0u8; 256];
        for (b, class) in identity.iter_mut().enumerate() {
            *class = b as u8;
        }
        lists.finish(identity, 256, table, next.len(), patterns.len())
    }

    /// Start a resumable walk at the root. Several walkers can be
    /// advanced over the same bytes in one pass (the ground-truth
    /// matcher drives its case-insensitive and byte-exact automata
    /// together instead of re-reading the flow).
    pub fn walker(&self) -> Walker<'_> {
        Walker {
            auto: self,
            state: 0,
        }
    }

    /// Number of patterns.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Number of automaton states (diagnostics).
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Number of byte classes, i.e. the width of a dense row
    /// (diagnostics).
    pub fn class_count(&self) -> usize {
        self.stride
    }

    /// Heap bytes owned by the automaton: state table plus output
    /// lists (the footprint a cached dictionary keeps resident).
    pub fn heap_bytes(&self) -> usize {
        let words = self.table.capacity() + self.out_start.capacity() + self.out_ids.capacity();
        words * std::mem::size_of::<u32>()
    }

    /// Pattern ids ending at the state at `offset`, which has outputs.
    fn outputs_at(&self, offset: u32) -> &[u32] {
        let i = self.table[offset as usize - 1] as usize;
        &self.out_ids[self.out_start[i] as usize..self.out_start[i + 1] as usize]
    }

    /// The transition word from the sparse state `state` on `class`:
    /// failure links are followed until a state has an edge for the
    /// class or a dense row answers. Kept out of line so the dense step
    /// the walk takes nearly every time stays small where it inlines.
    #[inline(never)]
    fn sparse_step(&self, mut state: u32, class: u8) -> u32 {
        while state & SPARSE_FLAG != 0 {
            let s = (state & STATE_MASK) as usize;
            let n = self.table[s] as usize;
            let packed = s + 2;
            let edge = (0..n).find(|&i| self.table[packed + i / 4].to_le_bytes()[i % 4] == class);
            if let Some(i) = edge {
                return self.table[packed + n.div_ceil(4) + i];
            }
            state = self.table[s + 1];
        }
        self.table[(state + class as u32) as usize]
    }

    /// Find all matches in `haystack` (overlapping included).
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut walk = self.walker();
        for (i, &b) in haystack.iter().enumerate() {
            for &pat in walk.step(b) {
                out.push(Match {
                    pattern: pat,
                    end: i + 1,
                });
            }
        }
        out
    }

    /// Which patterns occur in `haystack` (deduplicated, sorted)?
    /// This is the matcher's hot call: it bails on output collection
    /// overhead and just flags pattern presence.
    pub fn present(&self, haystack: &[u8]) -> Vec<u32> {
        let mut seen = vec![false; self.pattern_count];
        let mut walk = self.walker();
        for &b in haystack {
            for &pat in walk.step(b) {
                seen[pat as usize] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|(_, s)| **s)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// A resumable automaton walk: one [`Walker::step`] per haystack byte.
#[derive(Clone, Copy, Debug)]
pub struct Walker<'a> {
    auto: &'a AhoCorasick,
    /// The current state: its offset and [`SPARSE_FLAG`].
    state: u32,
}

impl<'a> Walker<'a> {
    /// Advance by one byte; returns the pattern ids of matches ending
    /// at this byte (empty for the common non-matching byte). From a
    /// dense state this is one class lookup and one transition load;
    /// from a sparse one, an edge search per failure link followed.
    #[inline]
    pub fn step(&mut self, b: u8) -> &'a [u32] {
        let auto = self.auto;
        let class = auto.classes[b as usize];
        let word = if self.state & SPARSE_FLAG == 0 {
            auto.table[(self.state + class as u32) as usize]
        } else {
            auto.sparse_step(self.state, class)
        };
        self.state = word & !OUT_FLAG;
        if word & OUT_FLAG == 0 {
            &[]
        } else {
            auto.outputs_at(word & STATE_MASK)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_simple_patterns() {
        let ac = AhoCorasick::new(&["he", "she", "his", "hers"]);
        let matches = ac.find_all(b"ushers");
        let pats: Vec<u32> = matches.iter().map(|m| m.pattern).collect();
        // "she" at 1..4, "he" at 2..4, "hers" at 2..6.
        assert!(pats.contains(&0));
        assert!(pats.contains(&1));
        assert!(pats.contains(&3));
        assert!(!pats.contains(&2));
    }

    #[test]
    fn overlapping_and_nested_matches() {
        let ac = AhoCorasick::new(&["aa", "aaa"]);
        let matches = ac.find_all(b"aaaa");
        let count_aa = matches.iter().filter(|m| m.pattern == 0).count();
        let count_aaa = matches.iter().filter(|m| m.pattern == 1).count();
        assert_eq!(count_aa, 3);
        assert_eq!(count_aaa, 2);
    }

    #[test]
    fn present_dedups() {
        let ac = AhoCorasick::new(&["ab", "bc", "zz"]);
        assert_eq!(ac.present(b"ababab bc"), vec![0, 1]);
        assert!(ac.present(b"xyxyx").is_empty());
    }

    #[test]
    fn empty_patterns_never_match() {
        let ac = AhoCorasick::new(&["", "x"]);
        assert_eq!(ac.present(b"yyy"), Vec::<u32>::new());
        assert_eq!(ac.present(b"x"), vec![1]);
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::new(&[&[0xFFu8, 0x00][..], &[0x00, 0x00][..]]);
        let hits = ac.present(&[0xAB, 0xFF, 0x00, 0x00, 0xCD]);
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn agrees_with_naive_contains() {
        let patterns = ["email", "42.36", "9d2a1f6c", "lat", "a", "match-me"];
        let ac = AhoCorasick::new(&patterns);
        let texts = [
            "GET /t?email=a@b.com&lat=42.361 HTTP/1.1",
            "nothing relevant here",
            "match-memail42.36",
            "",
        ];
        for text in texts {
            let expected: Vec<u32> = patterns
                .iter()
                .enumerate()
                .filter(|(_, p)| text.contains(*p))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(ac.present(text.as_bytes()), expected, "text {text:?}");
        }
    }

    #[test]
    fn suffix_pattern_inherited_through_failure_links() {
        // "bcd" is a suffix of paths reached while matching "abcde".
        let ac = AhoCorasick::new(&["abcde", "bcd"]);
        let hits = ac.present(b"zabcdez");
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn deep_failure_link_lands_mid_chain() {
        // "xxabcd" (depth 6, on the first pattern's chain) fails to
        // "abcd" (depth 4, inside the second pattern's chain): both are
        // sparse states, and the walk must resume there to find "abcde".
        let patterns = ["xxabcdy", "abcde"];
        let ac = AhoCorasick::new(&patterns);
        let state_after = |text: &[u8]| {
            let mut walk = ac.walker();
            for &b in text {
                walk.step(b);
            }
            walk.state
        };
        let deep = state_after(b"xxabcd");
        let mid = state_after(b"abcd");
        assert!(deep & mid & SPARSE_FLAG != 0, "both are sparse states");
        let fail = ac.table[(deep & STATE_MASK) as usize + 1];
        assert_eq!(fail, mid, "failure link of xxabcd");
        assert_eq!(ac.find_all(b"xxabcde"), vec![Match { pattern: 1, end: 7 }]);
        assert_eq!(ac.present(b"xxabcdy"), vec![0]);
        for text in [&b"xxabcde"[..], b"xxabcdy", b"xxxabcdyabcde", b"abcdxxabcd"] {
            assert_eq!(
                ac.find_all(text),
                AhoCorasick::new_reference(&patterns).find_all(text)
            );
        }
    }

    #[test]
    fn scales_to_dictionary_size() {
        let patterns: Vec<String> = (0..500).map(|i| format!("pattern-{i:03}-value")).collect();
        let ac = AhoCorasick::new(&patterns);
        assert_eq!(ac.pattern_count(), 500);
        let text = format!("xx {} yy {} zz", patterns[42], patterns[499]);
        assert_eq!(ac.present(text.as_bytes()), vec![42, 499]);
    }

    #[test]
    fn unused_bytes_share_class_zero() {
        let ac = AhoCorasick::new(&["abc", "cab"]);
        assert_eq!(ac.class_count(), 4, "a, b, c plus the unused-byte class");
        // Bytes outside the dictionary reset the walk without matching.
        assert_eq!(ac.present(b"ab\xffc zabc\x00cab"), vec![0, 1]);
        assert!(ac.present(b"a\xffbc").is_empty());
    }

    #[test]
    fn all_256_bytes_fit_without_class_zero() {
        let every: Vec<u8> = (0..=255).collect();
        let patterns = [every.clone(), vec![0xFF, 0x00]];
        let ac = AhoCorasick::new(&patterns);
        assert_eq!(ac.class_count(), 256);
        let mut haystack = every.clone();
        haystack.extend_from_slice(&every);
        let dense = AhoCorasick::new_reference(&patterns);
        assert_eq!(ac.find_all(&haystack), dense.find_all(&haystack));
        assert_eq!(ac.present(&haystack), vec![0, 1]);
    }

    #[test]
    fn no_patterns_is_a_single_state() {
        let ac = AhoCorasick::new::<&str>(&[]);
        assert_eq!((ac.state_count(), ac.class_count()), (1, 1));
        assert!(ac.find_all(b"anything").is_empty());
    }
}
