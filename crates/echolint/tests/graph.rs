//! Call-graph tests over the `fixtures/graph/` mini-workspace — two virtual
//! crates exercising cycles, trait-object dispatch onto shadowed method
//! names, and cross-crate paths, with exact `file:line` and call-chain text
//! pinned — plus live-workspace invariants: the entry-point manifest,
//! serial/parallel determinism, and machine-readable output shape.

use echolint::callgraph::CallGraph;
use echolint::reach::graph_rules;
use echolint::symbols::{file_symbols, FileSymbols};
use echolint::{analyze_workspace, to_json, to_sarif, FileScope, Parallelism};
use std::path::Path;

/// Reads `fixtures/graph/<name>.rs` and extracts its symbols as if it were
/// `crates/<name>/src/lib.rs` of a pipeline crate named `name`.
fn graph_file(name: &str) -> FileSymbols {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/graph").join(format!("{name}.rs"));
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let scope = FileScope {
        crate_name: name.into(),
        pipeline: true,
        test_file: false,
        allow_time: false,
        simd_kernels: false,
    };
    file_symbols(&format!("crates/{name}/src/lib.rs"), &src, &scope)
}

/// The two-crate mini-workspace and its call graph.
fn mini_workspace() -> (Vec<FileSymbols>, CallGraph) {
    let files = vec![graph_file("app"), graph_file("util")];
    let g = CallGraph::build(&files);
    (files, g)
}

/// Node index of a qualified name; panics (in tests) if absent.
fn idx(g: &CallGraph, qual: &str) -> usize {
    g.nodes
        .iter()
        .position(|n| n.qual == qual)
        .unwrap_or_else(|| panic!("node {qual} missing from graph"))
}

/// The full graph-rule output, pinned to exact positions and chain text:
/// the entry-reachable panics carry their shortest witness chains (one
/// through the recursive pair, one through the trait-object union), and the
/// hot kernel's transitive allocation is reported at the allocating line.
/// The literal index inside `util::blend` is entry-unreachable and must
/// stay silent.
#[test]
fn graph_fixture_pins_exact_chains_and_lines() {
    let (files, g) = mini_workspace();
    let rendered: Vec<String> =
        graph_rules(&files, &g).iter().map(ToString::to_string).collect();
    assert_eq!(
        rendered,
        vec![
            "crates/util/src/lib.rs:11: panic-reach: .unwrap() can panic — return a typed error instead; call chain: app::run → app::descend → util::finish",
            "crates/util/src/lib.rs:31: panic-reach: .expect() can panic — return a typed error instead; call chain: app::run → util::Gain::apply → util::Gain::scale",
            "crates/util/src/lib.rs:48: alloc-reach: vec! allocation reachable from hot kernel; call chain: util::mix_into → util::blend → util::grow",
        ]
    );
}

/// The mutual recursion `descend ⇄ rebound` is representable and the BFS
/// terminates through it (the pinned chains above prove reachability past
/// the cycle; here the cycle edges themselves are asserted).
#[test]
fn cycle_edges_exist_in_both_directions() {
    let (_, g) = mini_workspace();
    let descend = idx(&g, "app::descend");
    let rebound = idx(&g, "app::rebound");
    assert!(g.edges[descend].iter().any(|e| e.callee == rebound));
    assert!(g.edges[rebound].iter().any(|e| e.callee == descend));
}

/// `stage.apply(…)` has an unresolvable trait-object receiver, so the edge
/// takes every workspace method named `apply` — both halves of the
/// shadowed pair — while `self.scale(…)` resolves to the enclosing type
/// only.
#[test]
fn trait_object_call_unions_shadowed_methods_and_self_stays_typed() {
    let (_, g) = mini_workspace();
    let run = idx(&g, "app::run");
    let callees: Vec<&str> =
        g.edges[run].iter().map(|e| g.nodes[e.callee].qual.as_str()).collect();
    assert!(callees.contains(&"app::Echo::apply"), "{callees:?}");
    assert!(callees.contains(&"util::Gain::apply"), "{callees:?}");
    let apply = idx(&g, "util::Gain::apply");
    let scale_callees: Vec<&str> =
        g.edges[apply].iter().map(|e| g.nodes[e.callee].qual.as_str()).collect();
    assert_eq!(scale_callees, vec!["util::Gain::scale"]);
}

/// `util::prepare(…)` / `util::finish(…)` resolve across the crate
/// boundary by qualifier, and the fixture's one `// echolint: entry`
/// marker is the graph's entire entry manifest.
#[test]
fn cross_crate_paths_resolve_and_entries_match_markers() {
    let (_, g) = mini_workspace();
    let run = idx(&g, "app::run");
    let callees: Vec<&str> =
        g.edges[run].iter().map(|e| g.nodes[e.callee].qual.as_str()).collect();
    assert!(callees.contains(&"util::prepare"), "{callees:?}");
    let descend = idx(&g, "app::descend");
    let d_callees: Vec<&str> =
        g.edges[descend].iter().map(|e| g.nodes[e.callee].qual.as_str()).collect();
    assert!(d_callees.contains(&"util::finish"), "{d_callees:?}");
    let entries: Vec<&str> =
        g.entries().iter().map(|&i| g.nodes[i].qual.as_str()).collect();
    assert_eq!(entries, vec!["app::run"]);
}

/// The DOT dump names every fixture node and marks the entry point.
#[test]
fn dot_dump_covers_the_mini_workspace() {
    let (_, g) = mini_workspace();
    let dot = g.to_dot();
    for n in &g.nodes {
        assert!(dot.contains(n.qual.as_str()), "missing {}", n.qual);
    }
    assert!(dot.contains("doubleoctagon"), "entry shape missing");
}

/// Graph diagnostics survive the SARIF and JSON writers with their chain
/// text and positions intact.
#[test]
fn machine_output_carries_graph_diagnostics() {
    let (files, g) = mini_workspace();
    let diags = graph_rules(&files, &g);
    let sarif = to_sarif(&diags);
    assert!(sarif.contains("\"ruleId\": \"panic-reach\""));
    assert!(sarif.contains("call chain: app::run → app::descend → util::finish"));
    assert!(sarif.contains("\"uri\": \"crates/util/src/lib.rs\""));
    assert!(sarif.contains("\"startLine\": 11"));
    let json = to_json(&diags);
    assert!(json.contains("\"count\": 3"));
    assert!(json.contains("\"rule\": \"alloc-reach\""));
}

/// The live workspace's declared `// echolint: entry` manifest: the roots
/// the recognition pipeline, streaming layer, serve worker, and kernel
/// dispatch wrappers promise must all exist in the graph.
#[test]
fn live_workspace_entry_manifest_contains_the_declared_roots() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = analyze_workspace(&root, Parallelism::Auto).expect("workspace walk");
    let entries: Vec<&str> =
        a.graph.entries().iter().map(|&i| a.graph.nodes[i].qual.as_str()).collect();
    for want in [
        "core::EchoWrite::recognize_strokes",
        "core::Pipeline::roi_spectrogram",
        "core::StreamingRecognizer::push",
        "core::StreamingSession::push_events",
        "core::StreamingSession::push_events_shared",
        "serve::SessionManager::push",
        "serve::Worker::run",
        "wire::listener::accept_loop",
        "wire::server::serve_conn",
        "wire::server::read_loop",
        "wire::server::write_loop",
        "wire::server::route_events",
        "dsp::kernels::fft_stages",
        "dsp::kernels::subtract_clamp_bg",
        "dsp::kernels::realfft_split",
        "dsp::kernels::conv1d_clamped_into",
    ] {
        assert!(entries.contains(&want), "entry {want} missing from {entries:?}");
    }
}

/// A parallel scan must be bitwise-identical to the serial one: same
/// diagnostics, same rendered JSON/SARIF bytes, same DOT dump.
#[test]
fn parallel_scan_is_bitwise_identical_to_serial() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let serial = analyze_workspace(&root, Parallelism::Threads(1)).expect("serial walk");
    let threaded = analyze_workspace(&root, Parallelism::Threads(8)).expect("parallel walk");
    let s: Vec<String> = serial.diags.iter().map(ToString::to_string).collect();
    let p: Vec<String> = threaded.diags.iter().map(ToString::to_string).collect();
    assert_eq!(s, p);
    assert_eq!(to_json(&serial.diags), to_json(&threaded.diags));
    assert_eq!(to_sarif(&serial.diags), to_sarif(&threaded.diags));
    assert_eq!(serial.graph.to_dot(), threaded.graph.to_dot());
}
