//! Per-layer metrics of a traced run, computed from the spans and the
//! executor's counters of each stage-driven query.

use std::collections::BTreeMap;

use pf_engine::{ExecStats, OpProfile};

use crate::stats::{median, ms, us};
use crate::trace::{op_time, Compiled, Executed, Tracer};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("pf-xml.parse_ms", "ms"),
    ("pf-store.shred_ms", "ms"),
    ("pf-store.index_build_ms", "ms"),
    ("pf-store.statistics_ms", "ms"),
    ("pf-store.bytes_per_xml_byte", "ratio"),
    ("pf-store.step_ms", "ms"),
    ("pf-xquery.parse_us", "us"),
    ("pf-xquery.normalize_us", "us"),
    ("pf-xquery.compile_us", "us"),
    ("pf-xquery.plan_ops", "count"),
    ("pf-algebra.optimize_us", "us"),
    ("pf-algebra.physical_us", "us"),
    ("pf-algebra.rewrites", "count"),
    ("pf-algebra.plan_ops_optimized", "count"),
    ("pf-relational.theta_join_ms", "ms"),
    ("pf-relational.equi_join_ms", "ms"),
    ("pf-relational.aggregate_ms", "ms"),
    ("pf-relational.sort_rownum_ms", "ms"),
    ("pf-relational.difference_ms", "ms"),
    ("pf-relational.construct_ms", "ms"),
    ("pf-relational.pipeline_ms", "ms"),
    ("pf-relational.join_build_rows", "count"),
    ("pf-relational.join_probe_rows", "count"),
    ("pf-relational.agg_input_rows", "count"),
    ("pf-relational.index_candidate_rows", "count"),
    ("pf-relational.index_residual_ratio", "ratio"),
    ("pf-engine.execute_ms", "ms"),
    ("pf-engine.serialize_ms", "ms"),
    ("pf-engine.rows_produced", "count"),
    ("pf-engine.peak_resident_cells", "count"),
    ("pf-engine.plan_cache_hit_ratio", "ratio"),
    ("pf-engine.admission_waited", "ratio"),
    ("pf-engine.pool_speedup", "ratio"),
    ("pf-serve.overhead_us", "us"),
    ("pf-baseline.warm_geomean_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.stage_coverage", "ratio"),
    ("trace.consistent", "bool"),
];

/// Which op kinds of the executor's profile make up each relational
/// metric (`pipeline` is a fused chain of several logical operators).
const OP_KINDS: [(&str, &[&str]); 8] = [
    ("pf-store.step_ms", &["step"]),
    ("pf-relational.theta_join_ms", &["theta_join"]),
    ("pf-relational.equi_join_ms", &["equi_join"]),
    ("pf-relational.aggregate_ms", &["aggregate"]),
    ("pf-relational.sort_rownum_ms", &["sort", "rownum"]),
    ("pf-relational.difference_ms", &["difference"]),
    (
        "pf-relational.construct_ms",
        &["elem_construct", "attr_construct", "text_construct"],
    ),
    ("pf-relational.pipeline_ms", &["pipeline"]),
];

/// Stage spans of one query, in pipeline order, with the metric of each.
/// Their self times sum to the query's blocking path.
pub const STAGES: [(&str, &str); 7] = [
    ("pf-xquery.parse", "pf-xquery.parse_us"),
    ("pf-xquery.normalize", "pf-xquery.normalize_us"),
    ("pf-xquery.compile", "pf-xquery.compile_us"),
    ("pf-algebra.optimize", "pf-algebra.optimize_us"),
    ("pf-algebra.physical", "pf-algebra.physical_us"),
    ("pf-engine.execute", "pf-engine.execute_ms"),
    ("pf-engine.serialize", "pf-engine.serialize_ms"),
];

/// The first this many `STAGES` compile the query (timed in µs); the rest
/// execute it (timed in ms).
const COMPILE_STAGES: usize = 5;

/// Per-layer metrics measured on some workloads only.  Elsewhere they read
/// 0: the result needs a number for every metric.
const ONLY_ON: [(&str, &[&str]); 3] = [
    ("pf-engine.pool_speedup", &["xmark-path", "xmark-join"]),
    ("pf-serve.overhead_us", &["serve-mix"]),
    ("pf-baseline.warm_geomean_ms", &["xmark-path", "xmark-join"]),
];

/// Whether the per-layer metric `metric` is measured on `workload`.
pub fn applies(metric: &str, workload: &str) -> bool {
    ONLY_ON
        .iter()
        .find(|(m, _)| *m == metric)
        .is_none_or(|(_, on)| on.contains(&workload))
}

/// Samples grouped by metric and by query (or query shape): a metric's
/// value is the sum over groups of each group's median, i.e. the cost of
/// one pass over the workload's queries.
#[derive(Debug, Default)]
pub struct Grouped {
    samples: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>,
    peaks: BTreeMap<&'static str, f64>,
}

impl Grouped {
    pub fn push(&mut self, metric: &'static str, group: usize, value: f64) {
        self.samples
            .entry(metric)
            .or_default()
            .entry(group)
            .or_default()
            .push(value);
    }

    pub fn peak(&mut self, metric: &'static str, value: f64) {
        let p = self.peaks.entry(metric).or_insert(0.0);
        *p = p.max(value);
    }

    /// Add every sample and peak of `other`.
    pub fn merge(&mut self, other: &Grouped) {
        for (metric, groups) in &other.samples {
            for (group, values) in groups {
                for v in values {
                    self.push(metric, *group, *v);
                }
            }
        }
        for (metric, v) in &other.peaks {
            self.peak(metric, *v);
        }
    }

    /// Sum over groups of the per-group median (0 when never pushed).
    pub fn sum_of_medians(&self, metric: &str) -> f64 {
        self.samples
            .get(metric)
            .map(|groups| groups.values().map(|v| median(v)).sum())
            .unwrap_or(0.0)
    }

    /// Per-group medians of `metric`.
    pub fn medians(&self, metric: &str) -> BTreeMap<usize, f64> {
        self.samples
            .get(metric)
            .map(|groups| groups.iter().map(|(g, v)| (*g, median(v))).collect())
            .unwrap_or_default()
    }

    fn peak_of(&self, metric: &str) -> f64 {
        self.peaks.get(metric).copied().unwrap_or(0.0)
    }
}

/// Record the compile-side counters of one stage-driven query.
pub fn push_compiled(g: &mut Grouped, group: usize, compiled: &Compiled) {
    g.push("pf-xquery.plan_ops", group, compiled.plan_ops as f64);
    g.push(
        "pf-algebra.plan_ops_optimized",
        group,
        compiled.report.operators_after as f64,
    );
    g.push("pf-algebra.rewrites", group, compiled.rewrites() as f64);
}

/// Record the execution-side counters of one stage-driven query.
pub fn push_executed(g: &mut Grouped, group: usize, executed: &Executed) {
    push_profile(g, group, &executed.ops);
    push_exec_stats(g, group, &executed.stats);
}

fn push_profile(g: &mut Grouped, group: usize, ops: &OpProfile) {
    for (metric, kinds) in OP_KINDS {
        g.push(metric, group, ms(op_time(ops, kinds)));
    }
}

fn push_exec_stats(g: &mut Grouped, group: usize, s: &ExecStats) {
    g.push("pf-engine.rows_produced", group, s.rows_produced as f64);
    g.push(
        "pf-relational.join_build_rows",
        group,
        s.join_build_rows as f64,
    );
    g.push(
        "pf-relational.join_probe_rows",
        group,
        s.join_probe_rows as f64,
    );
    g.push(
        "pf-relational.agg_input_rows",
        group,
        s.agg_input_rows as f64,
    );
    g.push(
        "pf-relational.index_candidate_rows",
        group,
        s.index_candidate_rows as f64,
    );
    g.push("index_residual_rows", group, s.index_residual_rows as f64);
    g.peak(
        "pf-engine.peak_resident_cells",
        s.peak_resident_cells as f64,
    );
}

/// Record the self time of each stage span of `request` under `group`.
/// `compile_side` selects the compile stages, `execute_side` the execute
/// and serialize stages.
pub fn push_stage_times(
    g: &mut Grouped,
    group: usize,
    request: u64,
    selfs: &BTreeMap<(u64, &'static str), std::time::Duration>,
    compile_side: bool,
    execute_side: bool,
) {
    for (i, (span, metric)) in STAGES.into_iter().enumerate() {
        let compile_stage = i < COMPILE_STAGES;
        if (compile_stage && !compile_side) || (!compile_stage && !execute_side) {
            continue;
        }
        if let Some(t) = selfs.get(&(request, span)) {
            let value = if compile_stage { us(*t) } else { ms(*t) };
            g.push(metric, group, value);
        }
    }
}

/// Sum of the stage self times of `request` (its blocking path).
pub fn stage_sum(
    selfs: &BTreeMap<(u64, &'static str), std::time::Duration>,
    request: u64,
) -> std::time::Duration {
    STAGES
        .iter()
        .filter_map(|(span, _)| selfs.get(&(request, *span)))
        .sum()
}

/// How far the stage spans' summed self times may differ from the untraced
/// latency beyond the tracing overhead itself.  The stages nest inside the
/// traced request, so they cannot cover more than it; when `query_with`
/// does work the stage-driven path skips (negative overhead), the strict
/// bound could not hold even with every stage traced.  The slack also
/// absorbs the noise between the two medians.
pub const CONSISTENCY_SLACK: f64 = 0.10;

/// The traced run's consistency check: the self times along the blocking
/// spans sum to the untraced latency (`coverage` = their ratio) within the
/// tracing overhead (`overhead`, a fraction) and `CONSISTENCY_SLACK`.
pub fn consistent(overhead: f64, coverage: f64) -> bool {
    (coverage - 1.0).abs() <= overhead.abs() + CONSISTENCY_SLACK
}

/// The stage-derived per-layer metrics of `g`.
pub fn stage_metrics(g: &Grouped) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for (name, _) in PER_LAYER {
        let summed = name.starts_with("pf-xquery.")
            || name.starts_with("pf-algebra.")
            || (name.starts_with("pf-relational.") && name != "pf-relational.index_residual_ratio")
            || matches!(
                name,
                "pf-store.step_ms"
                    | "pf-engine.execute_ms"
                    | "pf-engine.serialize_ms"
                    | "pf-engine.rows_produced"
            );
        if summed {
            out.push((name, g.sum_of_medians(name)));
        }
    }
    let candidates = g.sum_of_medians("pf-relational.index_candidate_rows");
    let residual = g.sum_of_medians("index_residual_rows");
    out.push((
        "pf-relational.index_residual_ratio",
        if candidates > 0.0 {
            residual / candidates
        } else {
            0.0
        },
    ));
    out.push((
        "pf-engine.peak_resident_cells",
        g.peak_of("pf-engine.peak_resident_cells"),
    ));
    out
}

/// Total number of spans across tracers.
pub fn span_count(tracers: &[&Tracer]) -> usize {
    tracers.iter().map(|t| t.spans().len()).sum()
}
