//! Per-file symbol extraction — the front half of the workspace analysis.
//!
//! For every non-test function in a source file this pass records a
//! qualified name (`crate::Type::method` or `crate::module::fn`), the calls
//! its body makes (plain, path-qualified, and method calls with a
//! receiver-type hint), and its *unsanctioned* panic and allocation sites.
//! The [`crate::callgraph`] pass stitches the per-file symbol tables into a
//! workspace call graph; [`crate::reach`] runs the transitive rules over it.
//!
//! A site is *sanctioned* — and therefore invisible to the reachability
//! rules — when a reasoned allow marker covers it: `allow(no-panic-path)` or
//! `allow(panic-reach)` for panic sites, `allow(no-alloc-hot)` or
//! `allow(alloc-reach)` for allocation sites. The per-site rules audit those
//! markers; the graph rules trust them.

use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::rules::{
    alloc_site_at, panic_site_at, parse_markers, site_allowed, AllowMarker, FileScope, Rule,
};
use crate::scanner::{scan, Scan};

/// An unsanctioned panic or allocation site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based source line.
    pub line: u32,
    /// The per-site rule's message for this site.
    pub what: String,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `foo(…)` or `qual::foo(…)` — only the innermost qualifier segment is
    /// kept (`kernels::fft_stages` and `dsp::kernels::fft_stages` both resolve
    /// through `qual == "kernels"`).
    Path {
        /// The segment directly before the called name, if any.
        qualifier: Option<String>,
        /// The called name.
        name: String,
    },
    /// `recv.foo(…)` — resolved by the receiver-type heuristic.
    Method {
        /// The method name.
        name: String,
        /// Whether the receiver is literally `self` (resolves within the
        /// enclosing impl type first).
        self_receiver: bool,
    },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based source line of the callee name.
    pub line: u32,
    /// The named callee.
    pub target: CallTarget,
}

/// A function symbol: identity plus everything the graph rules need.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Workspace-relative file path (as used in diagnostics).
    pub file: String,
    /// Short crate name (`dsp`, `serve`, …; `root` for the suite's `src/`).
    pub crate_name: String,
    /// Module path inside the crate (`kernels::x86`, empty for `lib.rs`).
    pub module: String,
    /// Bare function name.
    pub name: String,
    /// Enclosing impl/trait type, when the fn is a method.
    pub type_ctx: Option<String>,
    /// Display name: `crate::Type::name` or `crate::module::name`.
    pub qual: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Hot kernel (`*_into` naming or `// echolint: hot`).
    pub hot: bool,
    /// Declared reachability root (`// echolint: entry`).
    pub entry: bool,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Defined inside `crates/dsp/src/kernels/`.
    pub simd_kernels: bool,
    /// Defined in a kernels *lane* file (`kernels/` but not `mod.rs`) — must
    /// be reachable only through the module's safe wrappers.
    pub simd_lane: bool,
    /// Calls the body makes, in source order.
    pub calls: Vec<CallSite>,
    /// Unsanctioned panic sites in the body.
    pub panic_sites: Vec<Site>,
    /// Unsanctioned allocation sites in the body.
    pub alloc_sites: Vec<Site>,
}

/// The symbol table of one file.
#[derive(Debug, Clone)]
pub struct FileSymbols {
    /// Workspace-relative path.
    pub file: String,
    /// The file's rule scope.
    pub scope: FileScope,
    /// Non-test functions, in source order.
    pub fns: Vec<FnSym>,
    /// Reasoned allow markers, for suppression of graph diagnostics whose
    /// site falls in this file.
    pub(crate) allows: Vec<AllowMarker>,
}

impl FileSymbols {
    /// Whether an allow marker sanctions `rule` at `line` in this file.
    pub fn allows_at(&self, rule: Rule, line: u32) -> bool {
        site_allowed(&self.allows, rule, line)
    }
}

/// Keywords that look like calls when followed by `(`.
fn is_keywordish(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "fn"
            | "let"
            | "else"
            | "in"
            | "as"
            | "move"
            | "ref"
            | "mut"
            | "pub"
            | "where"
            | "impl"
            | "dyn"
            | "use"
            | "break"
            | "continue"
            | "unsafe"
            | "await"
    )
}

/// The module path of `rel` inside its crate: directories after `src/` plus
/// the file stem, with `lib.rs` / `mod.rs` / `main.rs` stems dropped.
fn module_path(rel: &str) -> String {
    let comps: Vec<&str> = rel.split('/').collect();
    let after_src = match comps.iter().position(|c| *c == "src") {
        Some(p) => &comps[p + 1..],
        None => return String::new(),
    };
    let mut parts: Vec<String> = Vec::new();
    for (k, c) in after_src.iter().enumerate() {
        if k + 1 == after_src.len() {
            let stem = c.strip_suffix(".rs").unwrap_or(c);
            if !matches!(stem, "lib" | "mod" | "main") {
                parts.push(stem.to_string());
            }
        } else {
            parts.push((*c).to_string());
        }
    }
    parts.join("::")
}

/// Extracts the symbol table of one file. `file` is used verbatim in
/// diagnostics; marker-parse diagnostics are NOT re-emitted here (the
/// per-file rule pass owns them), so the scratch vec is discarded.
pub fn file_symbols(file: &str, source: &str, scope: &FileScope) -> FileSymbols {
    let lexed = lex(source);
    let scanned = scan(&lexed);
    file_symbols_lexed(file, &lexed, &scanned, scope)
}

/// Like [`file_symbols`], over an already lexed+scanned file — the workspace
/// walker lexes each file exactly once and shares the result between the
/// per-file rule pass and this symbol pass.
pub fn file_symbols_lexed(
    file: &str,
    lexed: &Lexed,
    scanned: &Scan,
    scope: &FileScope,
) -> FileSymbols {
    let mut marker_diags = Vec::new();
    let allows = parse_markers(&lexed.comments, file, &mut marker_diags);
    let crate_name =
        if scope.crate_name.is_empty() { "root".to_string() } else { scope.crate_name.clone() };
    let module = module_path(file);
    let lane = scope.simd_kernels && !file.ends_with("mod.rs") && !file.ends_with("kernels.rs");

    let mut fns = Vec::new();
    for f in &scanned.fns {
        let (s, e) = f.body;
        // Skip test-only functions entirely: they are outside the graph.
        if s < lexed.tokens.len() && scanned.is_test(s) {
            continue;
        }
        let qual = match &f.type_ctx {
            Some(ty) => format!("{crate_name}::{ty}::{}", f.name),
            None if module.is_empty() => format!("{crate_name}::{}", f.name),
            None => format!("{crate_name}::{module}::{}", f.name),
        };
        let mut sym = FnSym {
            file: file.to_string(),
            crate_name: crate_name.clone(),
            module: module.clone(),
            name: f.name.clone(),
            type_ctx: f.type_ctx.clone(),
            qual,
            line: f.line,
            hot: f.marked_hot || f.name.ends_with("_into"),
            entry: f.marked_entry,
            is_unsafe: f.is_unsafe,
            simd_kernels: scope.simd_kernels,
            simd_lane: lane,
            calls: Vec::new(),
            panic_sites: Vec::new(),
            alloc_sites: Vec::new(),
        };
        body_facts(lexed, scanned, (s, e.min(lexed.tokens.len())), &allows, &mut sym);
        fns.push(sym);
    }
    FileSymbols { file: file.to_string(), scope: scope.clone(), fns, allows }
}

/// Walks one body's token range, collecting calls and unsanctioned sites.
fn body_facts(
    lexed: &Lexed,
    scanned: &Scan,
    (s, e): (usize, usize),
    allows: &[AllowMarker],
    sym: &mut FnSym,
) {
    let toks = &lexed.tokens;
    for i in s..e {
        if scanned.is_test(i) {
            continue;
        }
        let t = &toks[i];
        if let Some(what) = panic_site_at(toks, i) {
            if !site_allowed(allows, Rule::NoPanicPath, t.line)
                && !site_allowed(allows, Rule::PanicReach, t.line)
            {
                sym.panic_sites.push(Site { line: t.line, what });
            }
        }
        if let Some(what) = alloc_site_at(toks, i) {
            if !site_allowed(allows, Rule::NoAllocHot, t.line)
                && !site_allowed(allows, Rule::AllocReach, t.line)
            {
                sym.alloc_sites.push(Site { line: t.line, what });
            }
        }
        if let Some(target) = call_at(toks, i) {
            sym.calls.push(CallSite { line: t.line, target });
        }
    }
}

/// Recognizes a call whose callee name is the token at `i`.
fn call_at(toks: &[Token], i: usize) -> Option<CallTarget> {
    let t = &toks[i];
    if t.kind != TokKind::Ident
        || is_keywordish(&t.text)
        || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
    {
        return None;
    }
    if i == 0 {
        return Some(CallTarget::Path { qualifier: None, name: t.text.clone() });
    }
    let prev = &toks[i - 1];
    // Macro invocations (`name!(…)`) never reach here: `!` sits between the
    // name and `(`. A name directly after `fn` is a declaration, not a call.
    if prev.is_ident("fn") {
        return None;
    }
    if prev.is_punct('.') {
        let self_receiver = i >= 2 && toks[i - 2].is_ident("self");
        return Some(CallTarget::Method { name: t.text.clone(), self_receiver });
    }
    if prev.is_punct(':') && i >= 2 && toks[i - 2].is_punct(':') {
        let qualifier = toks
            .get(i.wrapping_sub(3))
            .filter(|q| q.kind == TokKind::Ident)
            .map(|q| q.text.clone());
        return Some(CallTarget::Path { qualifier, name: t.text.clone() });
    }
    Some(CallTarget::Path { qualifier: None, name: t.text.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::classify;
    use std::path::Path;

    fn syms(rel: &str, src: &str) -> FileSymbols {
        file_symbols(rel, src, &classify(Path::new(rel)))
    }

    #[test]
    fn qualified_names_cover_methods_modules_and_lib() {
        let s = syms(
            "crates/dsp/src/stft.rs",
            "impl Stft { fn fill(&self) {} }\nfn free() {}\n",
        );
        assert_eq!(s.fns[0].qual, "dsp::Stft::fill");
        assert_eq!(s.fns[1].qual, "dsp::stft::free");
        let l = syms("crates/dsp/src/lib.rs", "fn top() {}\n");
        assert_eq!(l.fns[0].qual, "dsp::top");
        let k = syms("crates/dsp/src/kernels/x86.rs", "fn lane() {}\n");
        assert_eq!(k.fns[0].qual, "dsp::kernels::x86::lane");
        assert!(k.fns[0].simd_lane);
        let m = syms("crates/dsp/src/kernels/mod.rs", "fn wrap() {}\n");
        assert_eq!(m.fns[0].qual, "dsp::kernels::wrap");
        assert!(m.fns[0].simd_kernels && !m.fns[0].simd_lane);
    }

    #[test]
    fn calls_are_classified_by_shape() {
        let s = syms(
            "crates/core/src/engine.rs",
            "impl Engine { fn go(&self) { self.step(); other.run(); helper(); dsp::stft::plan(); Stroke::from_index(0); } }\nfn helper() {}\n",
        );
        let calls = &s.fns[0].calls;
        assert_eq!(
            calls[0].target,
            CallTarget::Method { name: "step".into(), self_receiver: true }
        );
        assert_eq!(
            calls[1].target,
            CallTarget::Method { name: "run".into(), self_receiver: false }
        );
        assert_eq!(calls[2].target, CallTarget::Path { qualifier: None, name: "helper".into() });
        assert_eq!(
            calls[3].target,
            CallTarget::Path { qualifier: Some("stft".into()), name: "plan".into() }
        );
        assert_eq!(
            calls[4].target,
            CallTarget::Path { qualifier: Some("Stroke".into()), name: "from_index".into() }
        );
    }

    #[test]
    fn sanctioned_sites_are_invisible_to_the_graph() {
        let src = "fn a() {\n// echolint: allow(no-panic-path) -- bounded above\nx.unwrap();\ny.unwrap();\n}\n";
        let s = syms("crates/dtw/src/dtw.rs", src);
        assert_eq!(s.fns[0].panic_sites.len(), 1);
        assert_eq!(s.fns[0].panic_sites[0].line, 4);
    }

    #[test]
    fn test_fns_and_macros_are_excluded() {
        let src = "fn live() { assert_eq!(a, b); go(); }\n#[cfg(test)]\nmod t { fn x() { boom.unwrap(); } }\n";
        let s = syms("crates/core/src/lib.rs", src);
        assert_eq!(s.fns.len(), 1);
        let names: Vec<String> = s.fns[0]
            .calls
            .iter()
            .map(|c| match &c.target {
                CallTarget::Path { name, .. } | CallTarget::Method { name, .. } => name.clone(),
            })
            .collect();
        assert_eq!(names, vec!["go"]);
    }
}
