//! Spans recorded by the benchmark's own code around calls into each
//! layer, and the stage-by-stage query runner of the traced runs.
//!
//! A traced run drives a query through the same public functions the
//! engine chains inside `Pathfinder::query_with`: `pf_xquery::{parse_query,
//! normalize, compile}`, `pf_algebra::optimize_with_verify` (statistics
//! from `Pathfinder::doc_statistics`, verification off as in release
//! builds), `PhysicalPlan::compile`, `Executor::run_physical_profiled` on
//! a registry snapshot, and serialization.  Each call gets a span; spans
//! stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pf_algebra::{optimize_with_verify, OptimizeReport, PhysicalPlan, Plan, StatsSource};
use pf_engine::{ExecStats, Executor, OpProfile, Pathfinder, QueryResult, Timings, WorkerPool};
use pf_store::DocStatistics;
use pf_xquery::{compile, normalize, parse_query, CompileOptions};

use crate::json::Json;

/// One recorded span.  Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub request: u64,
}

/// A single-threaded span recorder (each driving thread owns one).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` that belongs to `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children of one tracer never overlap).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| Duration::from_nanos((s.end_ns - s.start_ns).saturating_sub(c)))
            .collect()
    }

    /// Self time per `(request, span name)`, summed over repeated spans.
    pub fn self_by_request(&self) -> BTreeMap<(u64, &'static str), Duration> {
        let mut out = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry((span.request, span.name))
                .or_insert(Duration::ZERO) += t;
        }
        out
    }

    /// The spans as JSON records, for the run's span file.
    pub fn to_json(&self, thread: usize) -> Vec<Json> {
        self.spans
            .iter()
            .map(|s| {
                let mut o = Json::obj();
                o.set("name", s.name)
                    .set("thread", thread)
                    .set("request", s.request)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("parent", s.parent.map_or(Json::Null, Json::from));
                o
            })
            .collect()
    }
}

/// The engine's statistics as the optimizer sees them.
struct EngineStats<'a>(&'a Pathfinder);

impl StatsSource for EngineStats<'_> {
    fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>> {
        self.0.doc_statistics(uri)
    }
}

/// A query compiled stage by stage.
pub struct Compiled {
    pub plan: Plan,
    pub physical: PhysicalPlan,
    pub report: OptimizeReport,
    /// Operators of the plan the loop-lifting compiler produced.
    pub plan_ops: usize,
}

impl Compiled {
    /// Rewrites the optimizer applied.
    pub fn rewrites(&self) -> usize {
        let r = &self.report;
        r.projections_merged
            + r.identity_projections_removed
            + r.doc_orders_removed
            + r.distincts_removed
            + r.cse_merged
            + r.constants_folded
            + r.joins_reordered
            + r.predicates_pushed
            + r.subplans_deduped
            + r.chains_unshared
            + r.index_scans_introduced
    }
}

/// Parse, normalize, compile, optimize and physically compile `text`
/// with `engine`'s options, one span per stage.
pub fn compile_traced(
    tr: &mut Tracer,
    request: u64,
    engine: &Pathfinder,
    text: &str,
) -> Result<Compiled, String> {
    let options = engine.options();
    let ast = tr
        .span("pf-xquery.parse", request, |_| parse_query(text))
        .map_err(|e| e.to_string())?;
    let core = tr
        .span("pf-xquery.normalize", request, |_| normalize(&ast))
        .map_err(|e| e.to_string())?;
    let compile_options: &CompileOptions = &options.compile;
    let compiled = tr
        .span("pf-xquery.compile", request, |_| {
            compile(&core, compile_options)
        })
        .map_err(|e| e.to_string())?;
    let mut plan = compiled.plan;
    let plan_ops = plan.operator_count();
    let mut level = options.optimizer_level;
    level.indexscan &= options.indexes;
    let report = tr.span("pf-algebra.optimize", request, |_| {
        if options.optimize {
            optimize_with_verify(&mut plan, level, &EngineStats(engine), false)
        } else {
            OptimizeReport::default()
        }
    });
    let physical = tr.span("pf-algebra.physical", request, |_| {
        PhysicalPlan::compile(&plan, options.fusion)
    });
    Ok(Compiled {
        plan,
        physical,
        report,
        plan_ops,
    })
}

/// What one stage-driven execution produced.
pub struct Executed {
    pub xml: String,
    pub stats: ExecStats,
    pub ops: OpProfile,
}

/// Execute a compiled query on a fresh registry snapshot with the op
/// profile on, then serialize it: spans `pf-engine.execute` and
/// `pf-engine.serialize`.
pub fn execute_traced(
    tr: &mut Tracer,
    request: u64,
    engine: &Pathfinder,
    compiled: &Compiled,
    threads: usize,
    pool: Option<&Arc<WorkerPool>>,
) -> Result<Executed, String> {
    let options = engine.options();
    let snapshot = engine.registry().snapshot();
    let (table, stats, ops) = tr
        .span("pf-engine.execute", request, |_| {
            let mut executor = Executor::with_threads(&snapshot, threads)
                .with_fusion(options.fusion)
                .with_morsel_rows(options.morsel_rows)
                .with_op_profile(true);
            if let Some(pool) = pool {
                executor = executor.with_pool(Arc::clone(pool));
            }
            executor.run_physical_profiled(&compiled.plan, &compiled.physical)
        })
        .map_err(|e| e.to_string())?;
    let xml = tr
        .span("pf-engine.serialize", request, |_| {
            QueryResult::from_table(table, &snapshot, Timings::default()).map(|r| r.to_xml())
        })
        .map_err(|e| e.to_string())?;
    Ok(Executed { xml, stats, ops })
}

/// Wall time of one op kind in a profile.
pub fn op_time(ops: &OpProfile, kinds: &[&str]) -> Duration {
    ops.entries
        .iter()
        .filter(|e| kinds.contains(&e.kind))
        .map(|e| e.total)
        .sum()
}

/// Write every tracer's spans to `path` as one JSON array.
pub fn write_spans(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut all = Vec::new();
    for (thread, tr) in tracers.iter().enumerate() {
        all.extend(tr.to_json(thread));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{}\n", Json::Arr(all)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(Instant::now());
        tr.span("outer", 1, |tr| {
            std::thread::sleep(Duration::from_millis(2));
            tr.span("inner", 1, |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let self_times = tr.self_times();
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(self_times[1] >= Duration::from_millis(5));
        assert!(self_times[0] < self_times[1]);
        let total = tr.spans()[0].end_ns - tr.spans()[0].start_ns;
        let sum: u128 = self_times.iter().map(|d| d.as_nanos()).sum();
        assert_eq!(sum, u128::from(total));
    }
}
