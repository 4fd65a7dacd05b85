//! A lightweight, total Rust item/signature/body parser built on the
//! lossless lexer.
//!
//! This is not a Rust front end: it recovers exactly the facts the
//! interprocedural passes need — which functions exist (with qualified
//! names), which type names appear in their signatures, what each body
//! *calls*, and which struct fields carry which types — and nothing
//! else. Three properties
//! the rest of the crate relies on:
//!
//! 1. **Total**: any token stream, including invalid or truncated Rust,
//!    parses without panicking (the `lint_parse` fuzz target pins this).
//! 2. **Deterministic**: the table is a pure function of the token
//!    stream; item order follows source order.
//! 3. **Local**: a file's table depends on that file alone; only the
//!    call graph ([`crate::callgraph`]) joins tables across files.
//!
//! Parsing is scope-tracked, not grammar-driven: a cursor walks the
//! significant tokens keeping a stack of `mod`/`impl`/`trait`/`fn`
//! scopes keyed on brace depth. `macro_rules!` bodies are skipped
//! wholesale (their token soup is not item position), which is one of
//! the documented soundness caveats (DESIGN §10).

use crate::engine::SigView;
use crate::lexer::TokKind;

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// `::`-joined target path as written (`a::b::f`), or the bare
    /// method name for `.m(...)` receiver calls.
    pub target: String,
    /// True for `.m(...)` method calls (resolved by name, not path).
    pub method: bool,
    /// 1-based source line.
    pub line: u64,
}

/// One function (free fn, inherent/trait method, or nested fn).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnItem {
    /// Bare name.
    pub name: String,
    /// Fully qualified name: `module::[Type::]name`.
    pub qual: String,
    /// The `impl`/`trait` type the fn is a method of, or `""`.
    pub self_ty: String,
    /// 1-based line of the `fn` keyword.
    pub line: u64,
    /// Identifier tokens appearing in the parameter list (type names
    /// and parameter names alike; matchers key on type names).
    pub sig_types: Vec<String>,
    /// Identifier tokens appearing in the return type.
    pub ret_types: Vec<String>,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
    /// The fn sits inside a `#[cfg(test)]` region or `#[test]` item.
    pub in_test: bool,
}

/// One `struct`/`enum` definition with the identifier tokens of its
/// field/variant payload types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeItem {
    /// Bare name.
    pub name: String,
    /// Fully qualified name: `module::name`.
    pub qual: String,
    /// 1-based line of the `struct`/`enum` keyword.
    pub line: u64,
    /// Identifier tokens appearing in field or variant payload types.
    pub field_types: Vec<String>,
}

/// One name a `use` declaration brings into file scope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseDecl {
    /// The in-scope name (last path segment, or the `as` alias).
    pub name: String,
    /// The full `::`-joined path the name refers to.
    pub path: String,
}

/// The per-file item table the workspace passes consume.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FileTable {
    /// Workspace-relative path.
    pub path: String,
    /// Module path of the file root (`appvsweb_pii::profile`, …).
    pub module: String,
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// Structs and enums, in source order.
    pub types: Vec<TypeItem>,
    /// `use` declarations, expanded one name per entry.
    pub uses: Vec<UseDecl>,
}

/// Derive the module path of a file from its workspace-relative path.
///
/// `crates/<c>/src/a/b.rs` → `appvsweb_<c>::a::b` (with `lib.rs`,
/// `main.rs`, and `mod.rs` contributing no segment). Files outside a
/// crate's `src/` (workspace `tests/`, `benches/`, `examples/`,
/// `src/bin/`) get a stable synthetic module so their items still have
/// unique qualified names.
pub fn module_of(path: &str) -> String {
    let segs: Vec<&str> = path.split('/').collect();
    let (root, rest): (String, &[&str]) = match segs.as_slice() {
        ["crates", c, "src", rest @ ..] => (format!("appvsweb_{}", c.replace('-', "_")), rest),
        ["crates", c, kind, rest @ ..] => {
            (format!("appvsweb_{}::{kind}", c.replace('-', "_")), rest)
        }
        ["src", rest @ ..] => ("appvsweb".to_string(), rest),
        ["tests", rest @ ..] => ("tests".to_string(), rest),
        ["examples", rest @ ..] => ("examples".to_string(), rest),
        _ => ("file".to_string(), segs.as_slice()),
    };
    let mut out = root;
    for (i, seg) in rest.iter().enumerate() {
        let seg = if i + 1 == rest.len() {
            match seg.strip_suffix(".rs") {
                Some("lib" | "main" | "mod") | None => continue,
                Some(stem) => stem,
            }
        } else {
            seg
        };
        out.push_str("::");
        out.push_str(&seg.replace('-', "_"));
    }
    out
}

/// What kind of scope the cursor is inside.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ScopeKind {
    /// `mod name { … }` — appends a module segment.
    Mod(String),
    /// `impl Ty { … }` / `trait Ty { … }` — methods qualify under `Ty`.
    Impl(String),
    /// `fn … { … }` — body facts accumulate into `fns[idx]`.
    Fn(usize),
    /// `macro_rules! … { … }` — contents ignored entirely.
    Macro,
}

struct Scope {
    kind: ScopeKind,
    /// Brace depth *inside* the scope body; the scope pops when a `}`
    /// returns the cursor below it.
    depth: u32,
}

/// Keywords that look like calls when followed by `(` but are not.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "fn", "let", "else",
    "break", "continue", "ref", "mut", "box", "await", "unsafe", "dyn", "impl", "where", "pub",
];

/// Parse one file's significant-token stream into its item table.
///
/// `test_regions` come from the engine's test-region pass: they decide
/// `FnItem::in_test`.
pub fn parse_file(path: &str, sig: &SigView, test_regions: &[(u32, u32)]) -> FileTable {
    let mut p = Parser {
        sig,
        test_regions,
        depth: 0,
        scopes: Vec::new(),
        table: FileTable {
            path: path.to_string(),
            module: module_of(path),
            ..FileTable::default()
        },
    };
    p.run();
    p.table
}

struct Parser<'a> {
    sig: &'a SigView,
    test_regions: &'a [(u32, u32)],
    depth: u32,
    scopes: Vec<Scope>,
    table: FileTable,
}

impl Parser<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    /// The module path at the cursor: file module plus inline `mod`s.
    fn module_here(&self) -> String {
        let mut out = self.table.module.clone();
        for s in &self.scopes {
            if let ScopeKind::Mod(name) = &s.kind {
                out.push_str("::");
                out.push_str(name);
            }
        }
        out
    }

    /// The innermost `impl`/`trait` type at the cursor, or `""`.
    fn self_ty_here(&self) -> String {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| match &s.kind {
                ScopeKind::Impl(ty) => Some(ty.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Index of the innermost enclosing fn, unless a `macro_rules!`
    /// scope intervenes (macro bodies are not real control flow).
    fn current_fn(&self) -> Option<usize> {
        for s in self.scopes.iter().rev() {
            match &s.kind {
                ScopeKind::Fn(idx) => return Some(*idx),
                ScopeKind::Macro => return None,
                _ => {}
            }
        }
        None
    }

    fn in_macro(&self) -> bool {
        self.scopes
            .iter()
            .any(|s| matches!(s.kind, ScopeKind::Macro))
    }

    /// Skip a balanced `<…>` generics group starting at `i` (which must
    /// point at `<`); returns the index just past the matching `>`.
    /// Gives up (returns `i + 1`) after a bounded scan so expression
    /// `<` in broken input can't send the cursor to EOF.
    fn skip_generics(&self, i: usize) -> usize {
        let sig = self.sig;
        if sig.text(i) != "<" {
            return i;
        }
        let mut depth = 0i64;
        let mut j = i;
        let limit = (i + 512).min(sig.len());
        while j < limit {
            match sig.text(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        appvsweb_cover::cover!();
                        return j + 1;
                    }
                }
                ";" | "{" => {
                    // Clearly not generics — bail.
                    appvsweb_cover::cover!();
                    return j;
                }
                _ => {}
            }
            j += 1;
        }
        appvsweb_cover::cover!();
        i + 1
    }

    /// Read a type path (`a::b::C`, generics skipped) starting at `i`;
    /// returns (joined path, index past it).
    fn read_type_path(&self, mut i: usize) -> (String, usize) {
        let sig = self.sig;
        let mut segs: Vec<String> = Vec::new();
        // Leading `&`, `&mut`, `dyn` are not part of the name.
        while matches!(sig.text(i), "&" | "mut" | "dyn") {
            i += 1;
        }
        while sig.kind(i) == TokKind::Ident {
            segs.push(sig.text(i).to_string());
            i += 1;
            if sig.text(i) == "<" {
                i = self.skip_generics(i);
            }
            if sig.text(i) == ":" && sig.text(i + 1) == ":" {
                i += 2;
            } else {
                break;
            }
        }
        (segs.join("::"), i)
    }

    fn run(&mut self) {
        let mut i = 0usize;
        while i < self.sig.len() {
            i = self.step(i);
        }
    }

    /// Process the token at `i`; returns the next cursor position
    /// (always > `i`, so the walk terminates).
    fn step(&mut self, i: usize) -> usize {
        let sig = self.sig;
        let t = sig.text(i);
        match t {
            "{" => {
                self.depth += 1;
                i + 1
            }
            "}" => {
                while self
                    .scopes
                    .last()
                    .is_some_and(|s| s.depth >= self.depth.max(1))
                {
                    self.scopes.pop();
                }
                self.depth = self.depth.saturating_sub(1);
                i + 1
            }
            _ if self.in_macro() => i + 1,
            "macro_rules" if sig.text(i + 1) == "!" => {
                // `macro_rules! name { … }` — push a Macro scope pinned
                // to the body brace; everything inside is skipped.
                let mut j = i + 2;
                if sig.kind(j) == TokKind::Ident {
                    j += 1;
                }
                if sig.text(j) == "{" {
                    appvsweb_cover::cover!();
                    self.depth += 1;
                    self.scopes.push(Scope {
                        kind: ScopeKind::Macro,
                        depth: self.depth,
                    });
                    j + 1
                } else {
                    j
                }
            }
            "mod" if sig.kind(i + 1) == TokKind::Ident && sig.text(i + 2) == "{" => {
                let name = sig.text(i + 1).to_string();
                self.depth += 1;
                self.scopes.push(Scope {
                    kind: ScopeKind::Mod(name),
                    depth: self.depth,
                });
                i + 3
            }
            "impl" | "trait" if !self.in_fn_body() => self.item_impl_or_trait(i),
            "fn" if sig.kind(i + 1) == TokKind::Ident => self.item_fn(i),
            "struct" | "enum" if !self.in_fn_body() && sig.kind(i + 1) == TokKind::Ident => {
                self.item_type(i)
            }
            "use" if !self.in_fn_body() => self.item_use(i),
            _ => {
                if let Some(fn_idx) = self.current_fn() {
                    self.body_fact(i, fn_idx);
                }
                i + 1
            }
        }
    }

    fn in_fn_body(&self) -> bool {
        self.current_fn().is_some()
    }

    /// `impl [<…>] A [for B] {` / `trait A {` — push an Impl scope whose
    /// type is the implemented-on type (`B` when `for` is present).
    fn item_impl_or_trait(&mut self, i: usize) -> usize {
        let sig = self.sig;
        let mut j = i + 1;
        if sig.text(j) == "<" {
            j = self.skip_generics(j);
        }
        let (first, after) = self.read_type_path(j);
        let (ty, mut j) = if sig.text(after) == "for" {
            appvsweb_cover::cover!();
            self.read_type_path(after + 1)
        } else {
            (first, after)
        };
        // Scan to the body brace (skipping where-clauses); a `;` first
        // means no body (e.g. `impl Trait for Ty;` never parses, but
        // stay total).
        let limit = (j + 256).min(sig.len());
        while j < limit && sig.text(j) != "{" && sig.text(j) != ";" {
            j += 1;
        }
        if sig.text(j) == "{" && !ty.is_empty() {
            appvsweb_cover::cover!();
            let last = ty.rsplit("::").next().unwrap_or(&ty).to_string();
            self.depth += 1;
            self.scopes.push(Scope {
                kind: ScopeKind::Impl(last),
                depth: self.depth,
            });
            j + 1
        } else {
            j.max(i + 1)
        }
    }

    /// `fn name [<…>] ( params ) [-> Ret] [where …] { body }`.
    fn item_fn(&mut self, i: usize) -> usize {
        let sig = self.sig;
        let name = sig.text(i + 1).to_string();
        let line = sig.line(i);
        let mut j = i + 2;
        if sig.text(j) == "<" {
            j = self.skip_generics(j);
        }
        // Parameter list.
        let mut sig_types = Vec::new();
        if sig.text(j) == "(" {
            let mut depth = 1i64;
            j += 1;
            while j < sig.len() && depth > 0 {
                match sig.text(j) {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {
                        if sig.kind(j) == TokKind::Ident {
                            sig_types.push(sig.text(j).to_string());
                        }
                    }
                }
                j += 1;
            }
        }
        // Return type: `-> …` up to `{`, `;`, or `where`.
        let mut ret_types = Vec::new();
        if sig.text(j) == "-" && sig.text(j + 1) == ">" {
            appvsweb_cover::cover!();
            j += 2;
            while j < sig.len() && !matches!(sig.text(j), "{" | ";" | "where") {
                if sig.kind(j) == TokKind::Ident {
                    ret_types.push(sig.text(j).to_string());
                }
                j += 1;
            }
        }
        // Where clause: skip to `{` or `;`.
        while j < sig.len() && !matches!(sig.text(j), "{" | ";") {
            j += 1;
        }
        let self_ty = self.self_ty_here();
        let module = self.module_here();
        let qual = if self_ty.is_empty() {
            format!("{module}::{name}")
        } else {
            format!("{module}::{self_ty}::{name}")
        };
        let item = FnItem {
            name,
            qual,
            self_ty,
            line: line as u64,
            sig_types,
            ret_types,
            calls: Vec::new(),
            in_test: self.in_test(line),
        };
        if sig.text(j) == "{" {
            appvsweb_cover::cover!();
            self.table.fns.push(item);
            let idx = self.table.fns.len() - 1;
            self.depth += 1;
            self.scopes.push(Scope {
                kind: ScopeKind::Fn(idx),
                depth: self.depth,
            });
            j + 1
        } else {
            // Declaration-only (trait method signature): keep the item
            // for symbol completeness, with an empty body.
            appvsweb_cover::cover!();
            self.table.fns.push(item);
            j.max(i + 1)
        }
    }

    /// `struct Name { f: Ty, … }` / `struct Name(Ty, …);` / `enum Name { V(Ty), … }`.
    fn item_type(&mut self, i: usize) -> usize {
        let sig = self.sig;
        let name = sig.text(i + 1).to_string();
        let line = sig.line(i);
        let mut j = i + 2;
        if sig.text(j) == "<" {
            j = self.skip_generics(j);
        }
        let mut field_types = Vec::new();
        match sig.text(j) {
            "{" | "(" => {
                appvsweb_cover::cover!();
                let open = sig.text(j);
                let close = if open == "{" { "}" } else { ")" };
                let mut depth = 1i64;
                j += 1;
                while j < sig.len() && depth > 0 {
                    let t = sig.text(j);
                    if t == open {
                        depth += 1;
                    } else if t == close {
                        depth -= 1;
                    } else if sig.kind(j) == TokKind::Ident {
                        appvsweb_cover::cover!();
                        field_types.push(sig.text(j).to_string());
                    }
                    j += 1;
                }
            }
            _ => {
                // Unit struct or `struct Name;` — nothing to collect.
                appvsweb_cover::cover!();
            }
        }
        let module = self.module_here();
        self.table.types.push(TypeItem {
            qual: format!("{module}::{name}"),
            name,
            line: line as u64,
            field_types,
        });
        j.max(i + 1)
    }

    /// `use a::b::{c, d as e, f::g};` — expand to one `UseDecl` per
    /// bound name. Nested groups expand recursively; `*` globs are
    /// recorded under the name `*` (the resolver treats them as a
    /// module-wide wildcard).
    fn item_use(&mut self, i: usize) -> usize {
        let sig = self.sig;
        // Collect the tokens of the declaration up to `;`.
        let mut j = i + 1;
        let start = j;
        while j < sig.len() && sig.text(j) != ";" {
            j += 1;
        }
        let toks: Vec<String> = (start..j).map(|k| sig.text(k).to_string()).collect();
        let mut decls = Vec::new();
        expand_use(&toks, &mut Vec::new(), &mut 0, &mut decls, 0);
        self.table.uses.append(&mut decls);
        (j + 1).max(i + 1)
    }

    /// Mine one body token for facts.
    fn body_fact(&mut self, i: usize, fn_idx: usize) {
        let sig = self.sig;
        let t = sig.text(i);
        let line = sig.line(i) as u64;
        let prev = if i == 0 { "" } else { sig.text(i - 1) };

        // Method call: `.name(`.
        if prev == "." && sig.kind(i) == TokKind::Ident && sig.text(i + 1) == "(" {
            if let Some(f) = self.table.fns.get_mut(fn_idx) {
                f.calls.push(CallSite {
                    target: t.to_string(),
                    method: true,
                    line,
                });
            }
            return;
        }

        // Path or bare call: `f(` / `a::b::f(`, not preceded by `.`
        // (handled above), `fn`, or `!` (macro).
        if sig.kind(i) == TokKind::Ident
            && sig.text(i + 1) == "("
            && prev != "."
            && prev != "fn"
            && prev != "!"
            && !NOT_CALLS.contains(&t)
        {
            // Walk back through `seg::`* to build the full path.
            let mut segs = vec![t.to_string()];
            let mut k = i;
            while k >= 3
                && sig.text(k - 1) == ":"
                && sig.text(k - 2) == ":"
                && sig.kind(k - 3) == TokKind::Ident
            {
                segs.push(sig.text(k - 3).to_string());
                k -= 3;
            }
            segs.reverse();
            if let Some(f) = self.table.fns.get_mut(fn_idx) {
                f.calls.push(CallSite {
                    target: segs.join("::"),
                    method: false,
                    line,
                });
            }
        }
    }
}

/// Recursively expand the token stream of a `use` path into bound
/// names. `prefix` accumulates outer segments; `pos` is the cursor into
/// `toks`. Bounded recursion keeps hostile inputs total.
fn expand_use(
    toks: &[String],
    prefix: &mut Vec<String>,
    pos: &mut usize,
    out: &mut Vec<UseDecl>,
    depth: u32,
) {
    if depth > 16 {
        return;
    }
    let mut segs: Vec<String> = Vec::new();
    while *pos < toks.len() {
        let t = toks[*pos].as_str();
        match t {
            ":" => {
                *pos += 1; // `::` comes as two `:` puncts
            }
            "{" => {
                appvsweb_cover::cover!();
                *pos += 1;
                let outer = prefix.len();
                prefix.extend(segs.iter().cloned());
                loop {
                    expand_use(toks, prefix, pos, out, depth + 1);
                    match toks.get(*pos).map(String::as_str) {
                        Some(",") => *pos += 1,
                        Some("}") => {
                            *pos += 1;
                            break;
                        }
                        _ => break,
                    }
                }
                prefix.truncate(outer);
                return;
            }
            "}" | "," => break,
            "as" => {
                // `path as alias`
                appvsweb_cover::cover!();
                let alias = toks.get(*pos + 1).cloned().unwrap_or_default();
                *pos += 2;
                if !alias.is_empty() && !segs.is_empty() {
                    let mut full = prefix.clone();
                    full.extend(segs.iter().cloned());
                    out.push(UseDecl {
                        name: alias,
                        path: full.join("::"),
                    });
                }
                return;
            }
            _ => {
                segs.push(t.to_string());
                *pos += 1;
            }
        }
    }
    if let Some(last) = segs.last() {
        appvsweb_cover::cover!();
        let mut full = prefix.clone();
        full.extend(segs.iter().cloned());
        out.push(UseDecl {
            name: last.clone(),
            path: full.join("::"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::sig_view;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileTable {
        parse_file("crates/demo/src/lib.rs", &sig_view(lex(src)), &[])
    }

    #[test]
    fn modules_from_paths() {
        assert_eq!(
            module_of("crates/pii/src/profile.rs"),
            "appvsweb_pii::profile"
        );
        assert_eq!(module_of("crates/core/src/lib.rs"), "appvsweb_core");
        assert_eq!(
            module_of("crates/bench/src/bin/repro.rs"),
            "appvsweb_bench::bin::repro"
        );
        assert_eq!(
            module_of("crates/bench/benches/lint.rs"),
            "appvsweb_bench::benches::lint"
        );
        assert_eq!(module_of("tests/chaos.rs"), "tests::chaos");
        assert_eq!(module_of("src/lib.rs"), "appvsweb");
    }

    #[test]
    fn fns_methods_and_quals() {
        let t = parse(
            "fn free() {}\n\
             struct S { x: u64 }\n\
             impl S { fn method(&self, v: Foo) -> Bar { helper(v) } }\n\
             mod inner { pub fn nested() {} }\n\
             impl Display for S { fn fmt(&self) {} }",
        );
        let quals: Vec<&str> = t.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            [
                "appvsweb_demo::free",
                "appvsweb_demo::S::method",
                "appvsweb_demo::inner::nested",
                "appvsweb_demo::S::fmt",
            ]
        );
        let method = &t.fns[1];
        assert!(method.sig_types.iter().any(|s| s == "Foo"));
        assert_eq!(method.ret_types, ["Bar"]);
        assert_eq!(method.calls.len(), 1);
        assert_eq!(method.calls[0].target, "helper");
    }

    #[test]
    fn body_facts() {
        let t = parse(
            "fn f(rng: &mut SimRng) {\n\
               let x = opt.unwrap();\n\
               panic!(\"boom\");\n\
               let r = rng.fork(rng_labels::WORLD);\n\
               a::b::g(1);\n\
             }",
        );
        let calls: Vec<(&str, bool, u64)> = t.fns[0]
            .calls
            .iter()
            .map(|c| (c.target.as_str(), c.method, c.line))
            .collect();
        assert_eq!(
            calls,
            [
                ("unwrap", true, 2),
                ("fork", true, 4),
                ("a::b::g", false, 5)
            ],
            "macros are not calls"
        );
    }

    #[test]
    fn uses_expand() {
        let t = parse("use appvsweb_pii::{GroundTruth, types::PiiType as PT};\nuse a::b;\n");
        let pairs: Vec<(&str, &str)> = t
            .uses
            .iter()
            .map(|u| (u.name.as_str(), u.path.as_str()))
            .collect();
        assert!(pairs.contains(&("GroundTruth", "appvsweb_pii::GroundTruth")));
        assert!(pairs.contains(&("PT", "appvsweb_pii::types::PiiType")));
        assert!(pairs.contains(&("b", "a::b")));
    }

    #[test]
    fn macro_bodies_are_skipped() {
        let t = parse(
            "macro_rules! m { ($x:expr) => { fn ghost() { x.unwrap() } }; }\n\
             fn real() {}",
        );
        let names: Vec<&str> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }

    #[test]
    fn struct_and_enum_field_types() {
        let t = parse(
            "struct W { rng: SimRng, n: u64 }\n\
             enum E { A(GroundTruth), B }\n\
             struct Unit;",
        );
        assert_eq!(t.types.len(), 3);
        assert!(t.types[0].field_types.iter().any(|f| f == "SimRng"));
        assert!(t.types[1].field_types.iter().any(|f| f == "GroundTruth"));
        assert!(t.types[2].field_types.is_empty());
    }

    #[test]
    fn totality_on_garbage() {
        for src in [
            "fn",
            "fn (",
            "impl",
            "impl <",
            "use ::{{{",
            "mod m { fn f( {",
            "struct S(",
            "trait T { fn g(); }",
            "fn f() { a.b(",
            "}}}}",
            "fn f<T: Iterator<Item = (u8, u8)>>() -> impl Fn() {}",
        ] {
            let _ = parse(src);
        }
    }
}
