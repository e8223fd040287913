//! The serving cone holds its line: what `insq-net` and `insq-cluster`
//! link through normal `[dependencies]` is exactly eight crates, and each
//! of them declares exactly the modules on the allow-list below.
//!
//! A served query runs a kNN probe, Theorem 1's neighbor-list union, the
//! §III-A distance scan or the §IV Theorem-2 restricted search, and the
//! three update cases. Figure, oracle and baseline geometry (polygons,
//! order-k cells, the exact MIS, continuous traces) lives in
//! `insq-paper`, which no cone crate depends on. Adding a module to a
//! cone crate, or a dependency to the cone, means editing this file in
//! the open.
//!
//! The test reads the manifests and `lib.rs` files as text — no
//! `cargo metadata`, no TOML parser — which is enough for this
//! workspace's flat manifests (`name.workspace = true` entries, one per
//! line).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The serving cone: crate name, and the modules its `lib.rs` declares.
const CONE: [(&str, &[&str]); 8] = [
    (
        "insq-geom",
        &[
            "aabb",
            "circle",
            "point",
            "predicates",
            "scratch",
            "trajectory",
        ],
    ),
    ("insq-voronoi", &["delaunay", "diagram", "dynamic"]),
    ("insq-index", &["delta", "rtree", "vortree"]),
    (
        "insq-roadnet",
        &[
            "astar",
            "dijkstra",
            "generators",
            "graph",
            "ine",
            "nvd",
            "position",
            "scratch",
            "sites",
            "subnetwork",
            "trajectory",
            "world",
        ],
    ),
    (
        "insq-core",
        &[
            "euclidean",
            "held",
            "influential",
            "metrics",
            "network",
            "processor",
            "space",
        ],
    ),
    (
        "insq-server",
        &["fleet", "partition", "queries", "util", "world"],
    ),
    (
        "insq-net",
        &[
            "buffer", "client", "reactor", "server", "space", "sys", "wire",
        ],
    ),
    ("insq-cluster", &["group", "plan", "router"]),
];

/// The crates a server binary starts from.
const ROOTS: [&str; 2] = ["insq-net", "insq-cluster"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The lines of `manifest` inside the section headed exactly `header`.
fn section<'a>(manifest: &'a str, header: &'a str) -> impl Iterator<Item = &'a str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(move |l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// The key of a manifest entry: `a-b.workspace = true` and
/// `a-b = { … }` both name `a-b`.
fn entry_name(line: &str) -> &str {
    let key = line.split('=').next().unwrap_or(line).trim();
    key.split('.').next().unwrap_or(key)
}

/// Crate name → directory, from the root manifest's
/// `[workspace.dependencies]` path entries.
fn workspace_paths() -> BTreeMap<String, PathBuf> {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    section(&manifest, "[workspace.dependencies]")
        .filter_map(|l| {
            let path = l.split("path = \"").nth(1)?.split('"').next()?;
            Some((entry_name(l).to_string(), root().join(path)))
        })
        .collect()
}

/// The normal-dependency closure of [`ROOTS`] (roots included).
fn closure(paths: &BTreeMap<String, PathBuf>) -> BTreeSet<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut stack: Vec<String> = ROOTS.iter().map(|s| s.to_string()).collect();
    while let Some(name) = stack.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        // A dependency that is not a workspace path crate (a registry
        // crate) has no manifest to walk; it is still in the closure.
        let Some(dir) = paths.get(&name) else {
            continue;
        };
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        stack.extend(section(&manifest, "[dependencies]").map(|l| entry_name(l).to_string()));
    }
    seen
}

/// The file modules (`mod x;`, any visibility) `lib.rs` declares.
fn declared_modules(crate_dir: &Path) -> BTreeSet<String> {
    let lib = fs::read_to_string(crate_dir.join("src/lib.rs")).expect("lib.rs");
    lib.lines()
        .filter_map(|l| {
            let l = l.trim();
            let l = match l.strip_prefix("pub") {
                Some(rest) if rest.starts_with('(') => rest.split_once(')')?.1,
                Some(rest) => rest,
                None => l,
            };
            let name = l.trim_start().strip_prefix("mod ")?.strip_suffix(';')?;
            Some(name.trim().to_string())
        })
        .collect()
}

#[test]
fn cone_is_exactly_eight_crates() {
    let got = closure(&workspace_paths());
    let want: BTreeSet<String> = CONE.iter().map(|(c, _)| c.to_string()).collect();
    assert_eq!(
        got, want,
        "the normal-dependency closure of insq-net + insq-cluster changed"
    );
}

#[test]
fn cone_crates_declare_only_allowed_modules() {
    let paths = workspace_paths();
    for (name, allowed) in CONE {
        let dir = paths
            .get(name)
            .expect("cone crate is a workspace path crate");
        let got = declared_modules(dir);
        let want: BTreeSet<String> = allowed.iter().map(|m| m.to_string()).collect();
        assert_eq!(
            got, want,
            "{name}'s module list differs from the serving-cone allow-list"
        );
    }
}
