//! The workspace call graph: a symbol table over every parsed
//! [`FnItem`] plus path-qualified call-site resolution.
//!
//! Resolution is deliberately an *over-approximation* (DESIGN §10):
//!
//! * **Path calls** (`a::b::f(…)`) resolve through the file's `use`
//!   table, `crate`/`self`/`super` prefixes, sibling modules of the
//!   same crate, and — because crates re-export items at their root —
//!   a crate-wide by-name fallback for `cratename::f` shapes.
//! * **Method calls** (`recv.m(…)`) have no receiver types to consult,
//!   so they resolve to every workspace method named `m` *that the
//!   caller's crate can link against*: its own crate and the transitive
//!   closure of its dependencies, read from the `Cargo.toml` manifests
//!   ([`CrateGraph`]). That keeps panic-reachability sound at the cost
//!   of spurious edges through popular names within a dependency cone;
//!   ubiquitous container/iterator names that shadow `std` methods are
//!   excluded (`METHOD_NOISE`), which is the corresponding unsoundness.
//!   Names a trait in that cone declares keep every candidate, since a
//!   trait object or generic may dispatch to an impl in a crate further
//!   downstream. A caller no manifest covers (unit fixtures) keeps every
//!   candidate.
//! * Unresolved targets (std, primitives) produce no edge.
//!
//! Node order is sorted by qualified name and every index is stable
//! across runs and worker counts, which is what makes the downstream
//! passes byte-deterministic.

use crate::engine::SourceFile;
use crate::parse::{FileTable, FnItem};
use std::collections::{BTreeMap, BTreeSet};

/// Method names whose workspace impls shadow ubiquitous `std` methods;
/// resolving these by bare name would connect nearly every function to
/// nearly every other, so method edges skip them. Path-qualified calls
/// (`Type::get(…)`) still resolve. Documented soundness caveat.
pub const METHOD_NOISE: &[&str] = &[
    "as_str",
    "clone",
    "cmp",
    "contains",
    "default",
    "eq",
    "fmt",
    "from",
    "get",
    "hash",
    "insert",
    "into",
    "is_empty",
    "iter",
    "len",
    "new",
    "next",
    "parse",
    "push",
    "remove",
    "to_string",
    "try_from",
    "try_into",
    "write",
];

/// The workspace's crates as its `Cargo.toml` manifests declare them:
/// which crate each file belongs to and which crates its code can call.
/// Library code (a crate's `src/`) reaches its crate and the transitive
/// closure of its `[dependencies]`; tests, benches and examples also
/// reach the closures of its `[dev-dependencies]`.
#[derive(Clone, Debug, Default)]
pub struct CrateGraph {
    /// `(manifest directory with a trailing '/', or "" for the root,
    /// crate index)`, longest directory first.
    dirs: Vec<(String, usize)>,
    /// Per crate: crates its library code can call (itself included).
    lib_reach: Vec<BTreeSet<usize>>,
    /// Per crate: crates its tests, benches and examples can call.
    dev_reach: Vec<BTreeSet<usize>>,
}

impl CrateGraph {
    /// Read the crate graph from manifest files (`…/Cargo.toml`, paths
    /// workspace-relative). Manifests without a `[package]` name are
    /// skipped; dependencies on crates outside the set are ignored.
    pub fn from_manifests(manifests: &[&SourceFile]) -> CrateGraph {
        let parsed: Vec<(String, Manifest)> = manifests
            .iter()
            .filter_map(|m| {
                let dir = m.path.strip_suffix("Cargo.toml")?.to_string();
                Some((dir, parse_manifest(&m.text)?))
            })
            .collect();
        let index: BTreeMap<&str, usize> = parsed
            .iter()
            .enumerate()
            .map(|(i, (_, m))| (m.name.as_str(), i))
            .collect();
        let ids = |names: &[String]| -> Vec<usize> {
            names
                .iter()
                .filter_map(|n| index.get(n.as_str()).copied())
                .collect()
        };
        let deps: Vec<Vec<usize>> = parsed.iter().map(|(_, m)| ids(&m.deps)).collect();
        let closure = |from: &[usize]| -> BTreeSet<usize> {
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            let mut stack: Vec<usize> = from.to_vec();
            while let Some(c) = stack.pop() {
                if seen.insert(c) {
                    stack.extend(deps.get(c).into_iter().flatten().copied());
                }
            }
            seen
        };
        let lib_reach: Vec<BTreeSet<usize>> = (0..parsed.len()).map(|c| closure(&[c])).collect();
        let dev_reach: Vec<BTreeSet<usize>> = parsed
            .iter()
            .enumerate()
            .map(|(c, (_, m))| {
                let mut from = ids(&m.dev_deps);
                from.push(c);
                closure(&from)
            })
            .collect();
        let mut dirs: Vec<(String, usize)> = parsed
            .into_iter()
            .enumerate()
            .map(|(i, (dir, _))| (dir, i))
            .collect();
        dirs.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
        CrateGraph {
            dirs,
            lib_reach,
            dev_reach,
        }
    }

    /// The crate a workspace-relative file belongs to, with the file's
    /// path inside the crate directory.
    fn locate<'p>(&self, path: &'p str) -> Option<(usize, &'p str)> {
        self.dirs
            .iter()
            .find_map(|(dir, c)| path.strip_prefix(dir.as_str()).map(|rest| (*c, rest)))
    }

    /// The crate index of a file, if a manifest covers it.
    pub fn crate_of(&self, path: &str) -> Option<usize> {
        self.locate(path).map(|(c, _)| c)
    }

    /// The crates code in `path` can call, or `None` when no manifest
    /// covers the file.
    pub fn reach_of(&self, path: &str) -> Option<&BTreeSet<usize>> {
        let (c, rest) = self.locate(path)?;
        if rest.starts_with("src/") {
            self.lib_reach.get(c)
        } else {
            self.dev_reach.get(c)
        }
    }
}

/// The parts of a `Cargo.toml` the crate graph needs.
struct Manifest {
    name: String,
    deps: Vec<String>,
    dev_deps: Vec<String>,
}

/// A line-level reader for the manifest subset this workspace uses:
/// `[package] name`, and dependency keys in `[dependencies]`,
/// `[build-dependencies]` and `[dev-dependencies]` tables, whether
/// written `name = …`, `name.workspace = true` or as a
/// `[dependencies.name]` table. `[workspace.dependencies]` declares
/// versions, not dependencies, and is ignored.
fn parse_manifest(text: &str) -> Option<Manifest> {
    // Which dependency list a table feeds: `Some(dev)`.
    fn dep_table(table: &str) -> Option<bool> {
        match table {
            "dependencies" | "build-dependencies" => Some(false),
            "dev-dependencies" => Some(true),
            _ => None,
        }
    }
    let mut name = None;
    let mut deps = Vec::new();
    let mut dev_deps = Vec::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let (dep, dev) = if let Some(header) = line.strip_prefix('[') {
            section = header.trim_matches(['[', ']']).trim().to_string();
            // `[dependencies.name]` names its dependency in the header.
            match section.split_once('.') {
                Some((table, dep)) => match dep_table(table) {
                    Some(dev) => (dep, dev),
                    None => continue,
                },
                None => continue,
            }
        } else {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            if section == "package" && key == "name" {
                name = Some(value.trim().trim_matches('"').to_string());
                continue;
            }
            match dep_table(&section) {
                Some(dev) => (key.split('.').next().unwrap_or(key).trim(), dev),
                None => continue,
            }
        };
        if dev { &mut dev_deps } else { &mut deps }.push(dep.to_string());
    }
    Some(Manifest {
        name: name?,
        deps,
        dev_deps,
    })
}

/// One call edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u64,
    /// True when the edge came from by-name method resolution (less
    /// trustworthy than a path-resolved edge).
    pub method: bool,
}

/// The assembled workspace call graph.
pub struct CallGraph<'a> {
    /// Nodes, sorted by qualified name; parallel to `edges`.
    pub fns: Vec<&'a FnItem>,
    /// The file each node came from (index into the table slice).
    pub file_of: Vec<usize>,
    /// Outgoing edges per node, deduplicated, in deterministic order.
    pub edges: Vec<Vec<Edge>>,
    by_qual: BTreeMap<&'a str, usize>,
}

impl<'a> CallGraph<'a> {
    /// Build the graph from every file's item table, with no manifests:
    /// method calls resolve across the whole workspace.
    pub fn build(tables: &'a [FileTable]) -> CallGraph<'a> {
        CallGraph::build_with(tables, &CrateGraph::default())
    }

    /// Build the graph, resolving method calls only into crates the
    /// caller's crate can call (see [`CrateGraph`]).
    pub fn build_with(tables: &'a [FileTable], crates: &CrateGraph) -> CallGraph<'a> {
        // Collect nodes in deterministic order: tables are already
        // sorted by path, fns are in source order; sort by (qual, file,
        // line) so duplicate names (e.g. `tests::*::main`) stay stable.
        let mut nodes: Vec<(usize, &FnItem)> = Vec::new();
        for (ti, table) in tables.iter().enumerate() {
            for f in &table.fns {
                nodes.push((ti, f));
            }
        }
        nodes.sort_by(|a, b| {
            a.1.qual
                .cmp(&b.1.qual)
                .then(a.0.cmp(&b.0))
                .then(a.1.line.cmp(&b.1.line))
        });
        let fns: Vec<&FnItem> = nodes.iter().map(|&(_, f)| f).collect();
        let file_of: Vec<usize> = nodes.iter().map(|&(ti, _)| ti).collect();

        // First definition wins for duplicate quals (overloads across
        // cfg blocks); the loser still exists as a node.
        let mut by_qual: BTreeMap<&str, usize> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            by_qual.entry(f.qual.as_str()).or_insert(idx);
        }
        // Method name → node indices (methods only, noise excluded).
        let mut by_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            if !f.self_ty.is_empty() && !METHOD_NOISE.contains(&f.name.as_str()) {
                by_method.entry(f.name.as_str()).or_default().push(idx);
            }
        }
        // Crate root → (name → node indices), the re-export fallback.
        let mut by_crate: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            if let Some(krate) = f.qual.split("::").next() {
                by_crate
                    .entry((krate, f.name.as_str()))
                    .or_default()
                    .push(idx);
            }
        }

        // Crate of every node, for filtering by-name method edges.
        let crate_of: Vec<Option<usize>> = file_of
            .iter()
            .map(|&ti| tables.get(ti).and_then(|t| crates.crate_of(&t.path)))
            .collect();
        let resolver = Resolver {
            fns: &fns,
            by_qual: &by_qual,
            by_method: &by_method,
            by_crate: &by_crate,
            crate_of: &crate_of,
        };
        let mut edges: Vec<Vec<Edge>> = Vec::with_capacity(fns.len());
        for (idx, f) in fns.iter().enumerate() {
            let table = file_of.get(idx).and_then(|&ti| tables.get(ti));
            let mut out: Vec<Edge> = Vec::new();
            let reach = table.and_then(|t| crates.reach_of(&t.path));
            for call in &f.calls {
                for to in resolver.resolve(call.method, &call.target, f, table, reach) {
                    out.push(Edge {
                        to,
                        line: call.line,
                        method: call.method,
                    });
                }
            }
            out.sort_by(|a, b| a.to.cmp(&b.to).then(a.line.cmp(&b.line)));
            out.dedup_by(|a, b| a.to == b.to && a.line == b.line);
            edges.push(out);
        }

        CallGraph {
            fns,
            file_of,
            edges,
            by_qual,
        }
    }

    /// Node index of a qualified name, if defined in the workspace.
    pub fn lookup(&self, qual: &str) -> Option<usize> {
        self.by_qual.get(qual).copied()
    }

    /// Deterministic shortest call path from `from` to `to`, as
    /// qualified names — used to explain findings. Breadth-first over
    /// sorted edges, so the same path comes back every run.
    pub fn path_between(&self, from: usize, to: usize) -> Vec<String> {
        if from == to {
            return vec![self
                .fns
                .get(from)
                .map(|f| f.qual.clone())
                .unwrap_or_default()];
        }
        let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            for e in self.edges.get(n).map(Vec::as_slice).unwrap_or(&[]) {
                if e.to != from && !prev.contains_key(&e.to) {
                    prev.insert(e.to, n);
                    if e.to == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while cur != from {
                            cur = prev.get(&cur).copied().unwrap_or(from);
                            path.push(cur);
                        }
                        path.reverse();
                        return path
                            .into_iter()
                            .map(|i| self.fns.get(i).map(|f| f.qual.clone()).unwrap_or_default())
                            .collect();
                    }
                    queue.push_back(e.to);
                }
            }
        }
        Vec::new()
    }
}

struct Resolver<'a, 'b> {
    fns: &'b [&'a FnItem],
    by_qual: &'b BTreeMap<&'a str, usize>,
    by_method: &'b BTreeMap<&'a str, Vec<usize>>,
    by_crate: &'b BTreeMap<(&'a str, &'a str), Vec<usize>>,
    crate_of: &'b [Option<usize>],
}

impl Resolver<'_, '_> {
    /// Resolve one call target to zero or more node indices. `reach`
    /// is the set of crates the caller can call, when known.
    fn resolve(
        &self,
        method: bool,
        target: &str,
        caller: &FnItem,
        table: Option<&FileTable>,
        reach: Option<&BTreeSet<usize>>,
    ) -> Vec<usize> {
        if method {
            let hits = self.by_method.get(target).map(Vec::as_slice).unwrap_or(&[]);
            let visible = |to: usize| match (reach, self.crate_of.get(to).copied().flatten()) {
                (Some(reach), Some(krate)) => reach.contains(&krate),
                _ => true,
            };
            // A trait the caller can see may dispatch to an impl in any
            // crate (a `&dyn OriginServer` in `mitm` runs `services`'
            // impl), so its name keeps every candidate.
            let dispatches = hits
                .iter()
                .any(|&to| self.fns.get(to).is_some_and(|f| f.in_trait) && visible(to));
            return hits
                .iter()
                .copied()
                .filter(|&to| dispatches || visible(to))
                .collect();
        }
        let segs: Vec<&str> = target.split("::").collect();
        let module = caller_module(caller);
        let mut candidates: Vec<String> = Vec::new();
        match segs.as_slice() {
            [] => {}
            [name] => {
                // Bare call: same module, then any single-name `use`.
                candidates.push(format!("{module}::{name}"));
                if let Some(table) = table {
                    for u in &table.uses {
                        if u.name == *name {
                            candidates.push(u.path.clone());
                        }
                    }
                }
                // Same-impl sibling: `Type::name` in this module.
                if !caller.self_ty.is_empty() {
                    candidates.push(format!("{module}::{}::{name}", caller.self_ty));
                }
            }
            [first, rest @ ..] => {
                let tail = rest.join("::");
                match *first {
                    "crate" => {
                        let krate = module.split("::").next().unwrap_or(&module);
                        candidates.push(format!("{krate}::{tail}"));
                    }
                    "self" => candidates.push(format!("{module}::{tail}")),
                    "super" => {
                        let parent = module
                            .rsplit_once("::")
                            .map(|(p, _)| p.to_string())
                            .unwrap_or_else(|| module.clone());
                        candidates.push(format!("{parent}::{tail}"));
                    }
                    _ => {
                        // `use`-imported first segment.
                        if let Some(table) = table {
                            for u in &table.uses {
                                if u.name == *first {
                                    candidates.push(format!("{}::{tail}", u.path));
                                }
                            }
                        }
                        // Absolute crate path or sibling module/type of
                        // the current module and crate root.
                        candidates.push(target.to_string());
                        candidates.push(format!("{module}::{target}"));
                        let krate = module.split("::").next().unwrap_or(&module);
                        candidates.push(format!("{krate}::{target}"));
                    }
                }
            }
        }
        let mut out: Vec<usize> = candidates
            .iter()
            .filter_map(|c| self.by_qual.get(c.as_str()).copied())
            .collect();
        // Re-export fallback: `appvsweb_x::f(…)` where `f` really lives
        // in `appvsweb_x::inner::f`. Only when nothing resolved, and
        // only for two-segment paths whose head is a crate root.
        if out.is_empty() {
            if let [krate, name] = segs.as_slice() {
                if krate.starts_with("appvsweb") {
                    if let Some(hits) = self.by_crate.get(&(*krate, *name)) {
                        out.extend(hits.iter().copied());
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The module a fn's qual sits in (qual minus `[Type::]name`).
fn caller_module(f: &FnItem) -> String {
    let mut q = f.qual.as_str();
    if let Some(stripped) = q.strip_suffix(f.name.as_str()) {
        q = stripped.trim_end_matches(':');
    }
    if !f.self_ty.is_empty() {
        if let Some(stripped) = q.strip_suffix(f.self_ty.as_str()) {
            q = stripped.trim_end_matches(':');
        }
    }
    q.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::sig_view;
    use crate::lexer::lex;
    use crate::parse::parse_file;
    use std::collections::BTreeMap;

    fn table(path: &str, src: &str) -> FileTable {
        parse_file(path, &sig_view(lex(src)), &[], &BTreeMap::new())
    }

    #[test]
    fn resolves_paths_uses_and_methods() {
        let tables = vec![
            table(
                "crates/a/src/lib.rs",
                "pub fn entry() { helper(); appvsweb_b::remote(); t.record(1); }\n\
                 fn helper() { crate::deep::leaf(); }",
            ),
            table("crates/a/src/deep.rs", "pub fn leaf() {}"),
            table(
                "crates/b/src/lib.rs",
                "pub fn remote() {}\n\
                 pub struct T;\n\
                 impl T { pub fn record(&self, _x: u64) {} }",
            ),
        ];
        let g = CallGraph::build(&tables);
        let entry = g.lookup("appvsweb_a::entry").unwrap();
        let helper = g.lookup("appvsweb_a::helper").unwrap();
        let leaf = g.lookup("appvsweb_a::deep::leaf").unwrap();
        let remote = g.lookup("appvsweb_b::remote").unwrap();
        let record = g.lookup("appvsweb_b::T::record").unwrap();
        let tos = |i: usize| -> Vec<usize> { g.edges[i].iter().map(|e| e.to).collect() };
        assert!(tos(entry).contains(&helper));
        assert!(tos(entry).contains(&remote), "crate-root absolute path");
        assert!(tos(entry).contains(&record), "method by-name resolution");
        assert!(tos(helper).contains(&leaf), "crate:: prefix");
    }

    #[test]
    fn reexport_fallback_resolves_crate_level_names() {
        let tables = vec![
            table(
                "crates/a/src/lib.rs",
                "fn f() { appvsweb_json::encode_pretty(&x); }",
            ),
            table("crates/json/src/ser.rs", "pub fn encode_pretty() {}"),
        ];
        let g = CallGraph::build(&tables);
        let f = g.lookup("appvsweb_a::f").unwrap();
        let enc = g.lookup("appvsweb_json::ser::encode_pretty").unwrap();
        assert!(g.edges[f].iter().any(|e| e.to == enc));
    }

    #[test]
    fn method_edges_stay_inside_the_callers_dependency_cone() {
        // `core` calls `cfg.work()`; `perfbench` (which depends on `core`,
        // never the reverse) also defines a `work` method. By name alone
        // the call reaches both; with the manifests it reaches only what
        // `core` can link against: itself and its dependency `netsim`.
        let tables = vec![
            table(
                "crates/core/src/study.rs",
                "pub struct StudyConfig;\n\
                 impl StudyConfig { pub fn work(&self) {} }\n\
                 pub fn run_study_checked(cfg: &StudyConfig) { cfg.work(); }",
            ),
            table(
                "crates/netsim/src/link.rs",
                "pub struct Link; impl Link { pub fn work(&self) {} }",
            ),
            table(
                "perfbench/src/campaign.rs",
                "pub struct Setup;\n\
                 impl Setup { pub fn work(&self) { panic!() } }\n\
                 fn measure(s: &Setup) { s.work(); }",
            ),
        ];
        let manifest = |path: &str, text: &str| SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        };
        let manifests = [
            manifest(
                "Cargo.toml",
                "[workspace.dependencies]\nappvsweb-perfbench-free = { path = \"x\" }\n\
                 [package]\nname = \"appvsweb\"\n",
            ),
            manifest(
                "crates/core/Cargo.toml",
                "[package]\nname = \"appvsweb-core\"\n\n\
                 [dependencies]\nappvsweb-netsim.workspace = true # sim clock\n",
            ),
            manifest(
                "crates/netsim/Cargo.toml",
                "[package]\nname = \"appvsweb-netsim\"\n",
            ),
            manifest(
                "perfbench/Cargo.toml",
                "[package]\nname = \"perfbench\"\n[workspace]\n\n\
                 [dependencies.appvsweb-core]\npath = \"../crates/core\"\n",
            ),
        ];
        let refs: Vec<&SourceFile> = manifests.iter().collect();
        let crates = CrateGraph::from_manifests(&refs);

        let scoped = CallGraph::build_with(&tables, &crates);
        let tos = |g: &CallGraph, caller: &str| -> Vec<String> {
            let i = g.lookup(caller).unwrap();
            g.edges[i]
                .iter()
                .map(|e| g.fns[e.to].qual.clone())
                .collect()
        };
        let core_work = "appvsweb_core::study::StudyConfig::work";
        let netsim_work = "appvsweb_netsim::link::Link::work";
        let bench_work = "file::perfbench::src::campaign::Setup::work";
        assert_eq!(
            tos(&scoped, "appvsweb_core::study::run_study_checked"),
            [core_work, netsim_work],
            "core reaches its own crate and its dependency, not perfbench"
        );
        assert_eq!(
            tos(&scoped, "file::perfbench::src::campaign::measure"),
            [core_work, netsim_work, bench_work],
            "perfbench depends on core, which depends on netsim"
        );

        // No manifests (unit fixtures): every same-named method.
        let flat = CallGraph::build(&tables);
        assert_eq!(
            tos(&flat, "appvsweb_core::study::run_study_checked"),
            [core_work, netsim_work, bench_work]
        );
    }

    #[test]
    fn trait_dispatch_reaches_impls_downstream_of_the_caller() {
        // `mitm` calls `origin.handle(..)` on a `&dyn OriginServer` it
        // declares; the impl lives in `services`, which depends on
        // `mitm`. The edge must survive the dependency-cone filter, while
        // a plain method name still stays inside the cone.
        let tables = vec![
            table(
                "crates/mitm/src/proxy.rs",
                "pub trait OriginServer { fn handle(&mut self, r: u8) -> u8; }\n\
                 pub struct Meddle;\n\
                 impl Meddle { pub fn exchange(&mut self, origin: &mut dyn OriginServer) \
                 { origin.handle(1); self.tidy(); } }",
            ),
            table(
                "crates/services/src/world.rs",
                "pub struct OriginWorld;\n\
                 impl OriginServer for OriginWorld { fn handle(&mut self, r: u8) -> u8 { panic!() } }\n\
                 impl OriginWorld { pub fn tidy(&self) {} }",
            ),
        ];
        let manifest = |path: &str, text: &str| SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        };
        let manifests = [
            manifest(
                "crates/mitm/Cargo.toml",
                "[package]\nname = \"appvsweb-mitm\"\n",
            ),
            manifest(
                "crates/services/Cargo.toml",
                "[package]\nname = \"appvsweb-services\"\n\
                 [dependencies]\nappvsweb-mitm.workspace = true\n",
            ),
        ];
        let refs: Vec<&SourceFile> = manifests.iter().collect();
        let g = CallGraph::build_with(&tables, &CrateGraph::from_manifests(&refs));
        let exchange = g.lookup("appvsweb_mitm::proxy::Meddle::exchange").unwrap();
        let tos: Vec<&str> = g.edges[exchange]
            .iter()
            .map(|e| g.fns[e.to].qual.as_str())
            .collect();
        assert_eq!(
            tos,
            [
                "appvsweb_mitm::proxy::OriginServer::handle",
                "appvsweb_services::world::OriginWorld::handle",
            ],
            "trait dispatch keeps the downstream impl; `tidy` stays out of the cone"
        );
    }

    #[test]
    fn noisy_method_names_produce_no_edges() {
        let tables = vec![
            table("crates/a/src/lib.rs", "fn f(m: &Map) { m.get(1); }"),
            table(
                "crates/b/src/lib.rs",
                "pub struct Map; impl Map { pub fn get(&self, _i: u64) { panic!() } }",
            ),
        ];
        let g = CallGraph::build(&tables);
        let f = g.lookup("appvsweb_a::f").unwrap();
        assert!(g.edges[f].is_empty());
    }

    #[test]
    fn path_between_is_shortest_and_deterministic() {
        let tables = vec![table(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn a2() { c(); }",
        )];
        let g = CallGraph::build(&tables);
        let a = g.lookup("appvsweb_a::a").unwrap();
        let c = g.lookup("appvsweb_a::c").unwrap();
        assert_eq!(
            g.path_between(a, c),
            ["appvsweb_a::a", "appvsweb_a::b", "appvsweb_a::c"]
        );
        assert!(g.path_between(c, a).is_empty());
    }
}
