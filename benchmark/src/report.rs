//! The metric tables (names, units, bounds — mirrored by
//! `BENCHMARK.json`, which `tests/determinism.rs` checks) and the result
//! a run prints.

use std::collections::BTreeMap;

/// A gated end-to-end metric: `bound` is the share of the baseline
/// median by which it may get worse before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The bounded end-to-end metrics, the same on every workload; each
/// bound is at least three times the metric's largest ten-seed spread
/// (README, *Calibration*). `fail_frac` is the eighth: it is 0 on a
/// healthy run and gated as "any increase", through the result's
/// `attempted` / `failed` counts.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("answers_per_s", "1/s", true, 0.2),
    e2e("answer_p50_us", "us", false, 0.25),
    e2e("answer_p90_us", "us", false, 0.25),
    e2e("cpu_us_per_answer", "us", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.05),
    e2e("comm_objects_per_answer", "objects", false, 0.05),
];

/// The per-layer metrics of a traced run: `(name, unit, higher is
/// better)`. A workload that bypasses a layer reports that layer's
/// metrics as 0.
pub const PER_LAYER: [(&str, &str, bool); 59] = [
    ("core.valid_frac", "ratio", true),
    ("core.swap_frac", "ratio", false),
    ("core.rerank_frac", "ratio", false),
    ("core.recompute_rate", "ratio", false),
    ("core.validation_ops_per_answer", "ops", false),
    ("core.search_ops_per_answer", "ops", false),
    ("core.tick_valid_ns", "ns", false),
    ("core.tick_swap_ns", "ns", false),
    ("core.tick_rerank_ns", "ns", false),
    ("core.tick_recompute_ns", "ns", false),
    ("voronoi.build_ms", "ms", false),
    ("index.build_ms", "ms", false),
    ("index.knn_us", "us", false),
    ("index.apply_us", "us", false),
    ("voronoi.insert_us", "us", false),
    ("voronoi.remove_us", "us", false),
    ("roadnet.nvd_build_ms", "ms", false),
    ("roadnet.knn_us", "us", false),
    ("roadnet.apply_us", "us", false),
    ("roadnet.rebuild_over_apply", "ratio", true),
    ("server.tick_us_t1", "us", false),
    ("server.tick_us_t2", "us", false),
    ("server.thread_speedup", "ratio", true),
    ("server.engine_overhead_ns_per_answer", "ns", false),
    ("server.register_us", "us", false),
    ("server.deregister_us", "us", false),
    ("server.rss_kb_per_query", "kB", false),
    ("server.apply_us", "us", false),
    ("server.publish_us", "us", false),
    ("server.rebind_tick_us", "us", false),
    ("server.rebinds_per_epoch", "count", false),
    ("net.encode_ns", "ns", false),
    ("net.decode_ns", "ns", false),
    ("net.bytes_up_per_answer", "B", false),
    ("net.bytes_down_per_answer", "B", false),
    ("net.rtt_minus_tick_us", "us", false),
    ("net.server_ticks_per_cycle", "count", false),
    ("net.buffer_high_water_bytes", "B", false),
    ("net.connect_register_us", "us", false),
    ("cluster.plan_ms", "ms", false),
    ("cluster.group_tick_us", "us", false),
    ("cluster.group_overhead_frac", "ratio", false),
    ("cluster.handoffs_per_1k_answers", "count", false),
    ("cluster.uncertified_frac", "ratio", false),
    ("cluster.router_hop_us", "us", false),
    ("cluster.handoff_rtt_p50_us", "us", false),
    ("gen.positions_ns_per_answer", "ns", false),
    ("gen.driver_cpu_frac", "ratio", false),
    ("setup.cold_s", "s", false),
    ("setup.build_s", "s", false),
    ("setup.register_s", "s", false),
    ("setup.first_answer_s", "s", false),
    ("bench.round_cv", "ratio", false),
    ("bench.disturbed_frac", "ratio", false),
    ("bench.trace_overhead_frac", "ratio", false),
    ("bench.budget_residual_frac", "ratio", false),
    ("e2e.answer_p99_us", "us", false),
    ("e2e.answer_max_us", "us", false),
    ("e2e.fail_frac", "ratio", false),
];

/// What one run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the run's mode, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context lines (sample counts, sizes) printed before the metrics.
    pub notes: Vec<String>,
    /// What makes the run incorrect besides failed answers, such as a
    /// metric that could not be verified.
    pub faults: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The `(name, unit)` table of this run's mode.
    pub fn table(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Failed ÷ attempted answers.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty() && self.metrics.values().all(|v| v.is_finite())
    }

    /// Human-readable lines, then the one-line JSON result last.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {} ({})\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" }
        );
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        for fault in &self.faults {
            out.push_str(&format!("  FAULT {fault}\n"));
        }
        let table = self.table();
        for &(name, unit) in &table {
            out.push_str(&format!("metric {name} = {} {unit}\n", self.get(name)));
        }
        if !self.traced {
            // The eighth end-to-end metric. It is 0 on a healthy run and
            // gated as "any increase", which a relative bound cannot
            // express: the result line carries it as `attempted` and
            // `failed`, not among the bounded metrics.
            out.push_str(&format!("metric fail_frac = {} ratio\n", self.fail_frac()));
        }
        out.push_str(&format!(
            "answers attempted {} failed {}\n",
            self.attempted, self.failed
        ));
        let body: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                // A non-finite value already makes the run incorrect;
                // keep the line valid JSON all the same.
                let value = Some(self.get(name)).filter(|v| v.is_finite());
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    value.unwrap_or(0.0)
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        ));
        out
    }
}

/// The result line of a child run, parsed back (the format is
/// [`Report::render`]'s own, so plain string splitting is enough).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

fn between<'a>(s: &'a str, start: &str, end: &str) -> Option<&'a str> {
    let from = s.find(start)? + start.len();
    let len = s[from..].find(end)?;
    Some(&s[from..from + len])
}

/// Parses the last line of a run's standard output.
pub fn parse_result(stdout: &str) -> Option<Parsed> {
    let line = stdout.lines().last()?;
    let head = between(line, "{", "\"metrics\"")?;
    let mut parsed = Parsed {
        correct: between(head, "\"correct\": ", ",")? == "true",
        attempted: between(head, "\"attempted\": ", ",")?.parse().ok()?,
        failed: between(head, "\"failed\": ", ",")?.parse().ok()?,
        metrics: Vec::new(),
    };
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    for entry in body.split("}, ") {
        let name = between(entry, "\"", "\"")?;
        let value = between(entry, "\"value\": ", ",")?.parse().ok()?;
        let unit = between(entry, "\"unit\": \"", "\"")?;
        parsed
            .metrics
            .push((name.to_string(), value, unit.to_string()));
    }
    Some(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let mut r = Report {
            workload: "w".into(),
            attempted: 10,
            ..Report::default()
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 1.5 + i as f64);
        }
        let text = r.render();
        let p = parse_result(&text).expect("parses");
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (10, 0));
        assert_eq!(p.metrics.len(), END_TO_END.len());
        assert_eq!(p.metrics[1], ("answers_per_s".into(), 2.5, "1/s".into()));

        // A fault makes the run incorrect without touching the counts.
        r.faults
            .push("comm_objects_per_answer is unverified".into());
        let text = r.render();
        assert!(text.contains("FAULT comm_objects_per_answer is unverified"));
        let p = parse_result(&text).expect("parses");
        assert!(!p.correct);
        assert_eq!(p.failed, 0);
    }
}
