//! The benchmark's own contract, at tiny sizes: the same seed gives
//! bit-identical count metrics, another seed changes them, and the metric
//! names a run prints are exactly the ones `BENCHMARK.json` lists.

use std::collections::BTreeSet;

use insq_benchmark::report::{parse_result, END_TO_END, PER_LAYER};
use insq_benchmark::{run, RunConfig, Scale, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool) -> insq_benchmark::report::Report {
    let cfg = RunConfig {
        workload,
        seed,
        rounds: 2,
        trace,
        scale: Scale::Tiny,
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    assert!(report.correct(), "{}: wrong answers", workload.name());
    assert!(report.attempted > 0);
    report
}

/// Counts: they must repeat to the bit for one seed.
const EXACT_TRACED: [&str; 10] = [
    "core.valid_frac",
    "core.swap_frac",
    "core.rerank_frac",
    "core.recompute_rate",
    "core.validation_ops_per_answer",
    "core.search_ops_per_answer",
    "net.bytes_up_per_answer",
    "net.bytes_down_per_answer",
    "cluster.handoffs_per_1k_answers",
    "server.rebinds_per_epoch",
];

#[test]
fn counts_repeat_exactly_per_seed_and_move_with_the_seed() {
    for workload in Workload::ALL {
        let (a, b, other) = (
            tiny(workload, 7, false),
            tiny(workload, 7, false),
            tiny(workload, 8, false),
        );
        let comm = |r: &insq_benchmark::report::Report| r.get("comm_objects_per_answer").to_bits();
        assert_eq!(comm(&a), comm(&b), "{}: comm_objects", workload.name());
        assert_ne!(comm(&a), comm(&other), "{}: seed ignored", workload.name());
        assert!(a.get("comm_objects_per_answer") > 0.0);

        let (ta, tb, tother) = (
            tiny(workload, 7, true),
            tiny(workload, 7, true),
            tiny(workload, 8, true),
        );
        for name in EXACT_TRACED {
            assert_eq!(
                ta.get(name).to_bits(),
                tb.get(name).to_bits(),
                "{}: {name} differs between two runs of one seed",
                workload.name()
            );
        }
        assert!(
            EXACT_TRACED
                .iter()
                .any(|name| ta.get(name).to_bits() != tother.get(name).to_bits()),
            "{}: no traced count moved with the seed",
            workload.name()
        );
    }
}

#[test]
fn a_layer_a_workload_bypasses_reports_zero() {
    let cruise = tiny(Workload::EuclidCruise, 7, true);
    for name in [
        "roadnet.knn_us",
        "net.encode_ns",
        "cluster.plan_ms",
        "server.apply_us",
    ] {
        assert_eq!(cruise.get(name), 0.0, "{name}");
    }
    assert!(cruise.get("index.build_ms") > 0.0);
    let rush = tiny(Workload::RoadRush, 7, true);
    assert_eq!(rush.get("index.build_ms"), 0.0);
    assert!(rush.get("roadnet.apply_us") > 0.0);
    assert!(rush.get("server.rebinds_per_epoch") > 0.0);
    let cluster = tiny(Workload::WireCluster, 7, true);
    assert!(cluster.get("cluster.handoffs_per_1k_answers") > 0.0);
    assert_eq!(cluster.get("cluster.uncertified_frac"), 0.0);
    assert!(cluster.get("net.bytes_up_per_answer") > 0.0);
}

/// The quoted strings that follow `"key": ` inside the array called
/// `section` of `BENCHMARK.json` (the file is flat enough for this).
fn listed(json: &str, section: &str, key: &str) -> Vec<String> {
    let from = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[from..];
    let body = &body[..body.find(']').expect("array closes")];
    let pattern = format!("\"{key}\": ");
    body.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &body[at + pattern.len()..];
            let end = rest.find([',', '}']).expect("value ends");
            rest[..end].trim().trim_matches('"').to_string()
        })
        .collect()
}

#[test]
fn printed_metric_names_are_exactly_the_ones_benchmark_json_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");

    let workloads = listed(&json, "workloads", "name");
    let own: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, own);

    // End to end: names, units, directions and bounds all agree.
    assert_eq!(
        listed(&json, "end_to_end", "name"),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert_eq!(
        listed(&json, "end_to_end", "unit"),
        END_TO_END.iter().map(|m| m.unit).collect::<Vec<_>>()
    );
    let bounds: Vec<f64> = listed(&json, "end_to_end", "bound")
        .iter()
        .map(|b| b.parse().expect("numeric bound"))
        .collect();
    assert_eq!(
        bounds,
        END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
    );
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    assert_eq!(
        listed(&json, "end_to_end", "better"),
        END_TO_END
            .iter()
            .map(|m| better(m.higher_is_better))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        listed(&json, "per_layer", "name"),
        PER_LAYER.iter().map(|&(n, _, _)| n).collect::<Vec<_>>()
    );
    assert_eq!(
        listed(&json, "per_layer", "unit"),
        PER_LAYER.iter().map(|&(_, u, _)| u).collect::<Vec<_>>()
    );
    assert_eq!(
        listed(&json, "per_layer", "better"),
        PER_LAYER
            .iter()
            .map(|&(_, _, h)| better(h))
            .collect::<Vec<_>>()
    );

    // Names are unique across both lists and well formed.
    let mut seen = BTreeSet::new();
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|&(n, _, _)| n))
        .chain(own.iter().copied())
    {
        assert!(seen.insert(name), "{name} is used twice");
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }

    // And a run prints exactly its mode's list, last line included.
    for (trace, want) in [
        (false, listed(&json, "end_to_end", "name")),
        (true, listed(&json, "per_layer", "name")),
    ] {
        let text = tiny(Workload::EuclidChurn, 7, trace).render();
        let mut printed: Vec<String> = text
            .lines()
            .filter_map(|l| l.strip_prefix("metric "))
            .map(|l| l.split(' ').next().expect("name").to_string())
            .collect();
        if !trace {
            // The eighth end-to-end metric is printed with the others but
            // is 0 on a healthy run, which `BENCHMARK.json` may not list:
            // the result line carries it as `attempted` and `failed`.
            assert_eq!(printed.pop().as_deref(), Some("fail_frac"));
        }
        assert_eq!(printed, want);
        let parsed = parse_result(&text).expect("the last line parses");
        let in_json: Vec<String> = parsed.metrics.into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(in_json, want);
    }
}
