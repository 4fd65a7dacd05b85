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
//! breadth-first failure-link computation and output merging, compiled
//! to a full DFA over *byte classes*: every byte that occurs in some
//! pattern gets its own column, and all the bytes no pattern uses share
//! column 0 (from every state they lead back to the root).
//! A dictionary of digests and identifiers uses a few dozen distinct
//! bytes, so a row is a few dozen words instead of 256.
//!
//! Each transition word holds the target's row offset (state × row
//! width, so the step needs no multiply) with an "output here" flag in
//! its high bit, so the scan loop touches no output storage on the
//! (overwhelmingly common) non-matching byte.

/// High bit of a transition word: the target state has ≥1 output.
const OUT_FLAG: u32 = 1 << 31;
/// Mask recovering the target's row offset from a transition word.
const STATE_MASK: u32 = OUT_FLAG - 1;
/// Construction-time marker for a missing trie edge.
const NO_EDGE: u32 = u32::MAX;

/// A compiled multi-pattern automaton.
///
/// The ground-truth dictionaries of the paper grid average ~800 states
/// (case-insensitive) and ~5,500 states (byte-exact: MD5/SHA/base64
/// digests share almost no prefixes). A dense 256-column table would
/// spend 1 KB per state, ~6 MB per identity; with byte classes the
/// widest rows are 48 and 63 columns and an identity's two automata
/// total ~1.5 MB.
#[derive(Clone, Debug)]
pub struct AhoCorasick {
    /// Byte → column of the transition table. Column 0 holds every byte
    /// no pattern uses (unless patterns use all 256).
    classes: [u8; 256],
    /// Row width: the number of byte classes.
    stride: usize,
    /// Transitions, row-major: the word for state `s` on byte `b` is at
    /// `s * stride + classes[b]`. Low bits = the target's row offset;
    /// high bit = [`OUT_FLAG`].
    next: Vec<u32>,
    /// Pattern ids terminating at state `s` (after output merging) are
    /// `out_ids[out_start[s]..out_start[s + 1]]`.
    out_start: Vec<u32>,
    out_ids: Vec<u32>,
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

impl AhoCorasick {
    /// Build an automaton over `patterns`. Empty patterns are permitted
    /// but never match. Matching is byte-exact; callers wanting
    /// case-insensitivity normalize both sides beforehand.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        let (classes, stride) = byte_classes(patterns);

        // Trie construction, one `stride`-wide row per state.
        let mut next: Vec<u32> = vec![NO_EDGE; stride];
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new()];
        for (id, pat) in patterns.iter().enumerate() {
            let bytes = pat.as_ref();
            if bytes.is_empty() {
                continue;
            }
            let mut state = 0usize;
            for &b in bytes {
                let slot = state * stride + classes[b as usize] as usize;
                state = if next[slot] == NO_EDGE {
                    let new_state = outputs.len();
                    next[slot] = new_state as u32;
                    next.resize(next.len() + stride, NO_EDGE);
                    outputs.push(Vec::new());
                    new_state
                } else {
                    next[slot] as usize
                };
            }
            outputs[state].push(id as u32);
        }

        // Failure links via BFS, then convert to a full DFA by patching
        // missing transitions (next[s][c] = next[fail(s)][c]).
        let mut fail = vec![0u32; outputs.len()];
        let mut queue = std::collections::VecDeque::new();
        for slot in &mut next[..stride] {
            if *slot == NO_EDGE {
                *slot = 0;
            } else {
                queue.push_back(*slot as usize);
            }
        }
        while let Some(state) = queue.pop_front() {
            let row = state * stride;
            let fail_row = fail[state] as usize * stride;
            for c in 0..stride {
                let child = next[row + c];
                let fallback = next[fail_row + c];
                if child == NO_EDGE {
                    next[row + c] = fallback;
                } else {
                    fail[child as usize] = fallback;
                    // Merge outputs from the failure target.
                    let inherited = outputs[fallback as usize].clone();
                    outputs[child as usize].extend(inherited);
                    queue.push_back(child as usize);
                }
            }
        }

        Self::pack(classes, stride, next, &outputs, patterns.len())
    }

    /// The dense 256-column construction this layout replaced, kept as
    /// a differential oracle: the same goto/fail algorithm indexed by
    /// raw bytes, then stored with the identity class map.
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

        let mut identity = [0u8; 256];
        for (b, class) in identity.iter_mut().enumerate() {
            *class = b as u8;
        }
        let flat = next.iter().flatten().copied().collect();
        Self::pack(identity, 256, flat, &outputs, patterns.len())
    }

    /// Finish a DFA whose words are plain state ids: premultiply each
    /// target by the row width, pack the "target has outputs" flag so
    /// the walk needs no second load to decide whether to collect, and
    /// flatten the output lists.
    fn pack(
        classes: [u8; 256],
        stride: usize,
        mut next: Vec<u32>,
        outputs: &[Vec<u32>],
        pattern_count: usize,
    ) -> Self {
        // lint:allow(R1) dictionary automata are bounded (~5k states × ≤64 classes), nowhere near 2^31
        assert!(next.len() < STATE_MASK as usize, "automaton too large");
        for slot in &mut next {
            let target = *slot as usize;
            *slot = (target * stride) as u32;
            if !outputs[target].is_empty() {
                *slot |= OUT_FLAG;
            }
        }
        next.shrink_to_fit();
        let mut out_start = Vec::with_capacity(outputs.len() + 1);
        let mut out_ids = Vec::with_capacity(outputs.iter().map(Vec::len).sum());
        out_start.push(0);
        for ids in outputs {
            out_ids.extend_from_slice(ids);
            out_start.push(out_ids.len() as u32);
        }
        AhoCorasick {
            classes,
            stride,
            next,
            out_start,
            out_ids,
            pattern_count,
        }
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
        self.out_start.len() - 1
    }

    /// Number of byte classes, i.e. the width of a transition row
    /// (diagnostics).
    pub fn class_count(&self) -> usize {
        self.stride
    }

    /// Heap bytes owned by the automaton: transition table plus output
    /// lists (the footprint a cached dictionary keeps resident).
    pub fn heap_bytes(&self) -> usize {
        let word = std::mem::size_of::<u32>();
        (self.next.capacity() + self.out_start.capacity() + self.out_ids.capacity()) * word
    }

    /// Pattern ids ending at the state whose row starts at `offset`.
    fn outputs_at(&self, offset: u32) -> &[u32] {
        let state = offset as usize / self.stride;
        &self.out_ids[self.out_start[state] as usize..self.out_start[state + 1] as usize]
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
    /// Row offset of the current state.
    state: u32,
}

impl<'a> Walker<'a> {
    /// Advance by one byte; returns the pattern ids of matches ending
    /// at this byte (empty for the common non-matching byte, at the
    /// cost of one class lookup and one transition load).
    #[inline]
    pub fn step(&mut self, b: u8) -> &'a [u32] {
        let class = self.auto.classes[b as usize] as u32;
        let word = self.auto.next[(self.state + class) as usize];
        self.state = word & STATE_MASK;
        if word & OUT_FLAG == 0 {
            &[]
        } else {
            self.auto.outputs_at(self.state)
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
