//! The `xmark-path` and `xmark-join` workloads: one XMark document, a
//! closed loop of one client on the engine defaults, rounds of every
//! query cold (right after `clear_plan_cache`) and then warm.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pf_baseline::BaselineEngine;
use pf_engine::{default_threads, EngineOptions, Pathfinder, Profile, WorkerPool};
use pf_store::StorageStats;
use pf_xmark::queries::DOC_URI;
use pf_xmark::{generate, GeneratorConfig};

use crate::json::Json;
use crate::layers::{self, Grouped};
use crate::stats::{digest, geomean, median, ms, peak_rss_mb, quantile};
use crate::trace::{compile_traced, execute_traced, Tracer};
use crate::{Outcome, Run};

/// One XMark workload: a document scale and a query set.
pub struct Spec {
    pub name: &'static str,
    /// Generator scale (3.3 is the paper's 11 MB instance).
    pub scale: f64,
    /// XMark query numbers.
    pub queries: &'static [u8],
}

pub const PATH: Spec = Spec {
    name: "xmark-path",
    scale: 3.3,
    queries: &[1, 2, 3, 4, 5, 6, 7, 13, 14, 15, 16, 17, 18, 19, 20],
};

/// Runnable with `--workload xmark-join`, but not one of the workloads in
/// `BENCHMARK.json`: its run-to-run spread exceeds the benchmark's bounds
/// on a shared 2-CPU host (see `benchmark/README.md`).
pub const JOIN: Spec = Spec {
    name: "xmark-join",
    scale: 0.5,
    queries: &[8, 9, 10, 11, 12],
};

/// Rounds a timed phase runs even when its time is up.
const MIN_ROUNDS: usize = 3;

impl Spec {
    pub fn texts(&self) -> Vec<&'static str> {
        self.queries
            .iter()
            .map(|&id| {
                pf_xmark::query(id)
                    .expect("XMark query ids are 1..=20")
                    .text
            })
            .collect()
    }

    pub fn document(&self, seed: u64) -> String {
        generate(&GeneratorConfig {
            scale: self.scale,
            seed,
        })
    }
}

/// One timed query execution.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the workload's query list.
    pub query: usize,
    pub cold: bool,
    pub ms: f64,
    /// Digest of the serialized answer, or the error.
    pub answer: Result<u64, String>,
}

/// A loaded engine and the time it took to get there.
struct SetUp {
    engine: Arc<Pathfinder>,
    total: Duration,
    /// The `load_document` call alone.
    load: Duration,
    /// Warm-up executions, checked like timed ones.
    warmup: Vec<Sample>,
}

fn engine_with_threads(threads: usize) -> Pathfinder {
    Pathfinder::with_options(EngineOptions::builder().threads(threads).build())
}

/// Execute `text` and serialize it, timed as a client sees it.
fn timed_query(engine: &Pathfinder, query: usize, cold: bool, text: &str) -> Sample {
    let start = Instant::now();
    let answer = engine.query_with(text, Profile::None).map(|o| o.to_xml());
    let elapsed = start.elapsed();
    Sample {
        query,
        cold,
        ms: ms(elapsed),
        answer: answer.map(|xml| digest(&xml)).map_err(|e| e.to_string()),
    }
}

/// Generate the document, load it, and run every query once so that
/// statistics and index sidecars are built.
fn set_up(spec: &Spec, seed: u64, texts: &[&str]) -> SetUp {
    let start = Instant::now();
    let xml = spec.document(seed);
    let engine = Arc::new(engine_with_threads(0));
    let load_start = Instant::now();
    engine
        .load_document(DOC_URI, &xml)
        .expect("generated XMark documents are well-formed");
    let load = load_start.elapsed();
    let warmup = texts
        .iter()
        .enumerate()
        .map(|(i, text)| timed_query(&engine, i, true, text))
        .collect();
    SetUp {
        engine,
        total: start.elapsed(),
        load,
        warmup,
    }
}

/// One round: clear the plan cache, every query cold, every query warm.
fn round(engine: &Pathfinder, texts: &[&str], out: &mut Vec<Sample>) {
    engine.clear_plan_cache();
    for cold in [true, false] {
        for (i, text) in texts.iter().enumerate() {
            out.push(timed_query(engine, i, cold, text));
        }
    }
}

/// Expected answers from the navigational engine, one per query text,
/// with the time each took.
pub fn references(xml: &str, texts: &[&str]) -> (Vec<Option<u64>>, Vec<f64>) {
    let mut baseline = BaselineEngine::new();
    baseline
        .load_document(DOC_URI, xml)
        .expect("generated XMark documents are well-formed");
    texts
        .iter()
        .map(|text| {
            let start = Instant::now();
            let answer = baseline.query(text).map(|r| digest(&r.to_xml()));
            let elapsed = start.elapsed();
            (answer.ok(), ms(elapsed))
        })
        .unzip()
}

/// Samples split into checked and failed.
pub struct Scored<'a> {
    pub good: Vec<&'a Sample>,
    pub failed: usize,
    pub first_error: Option<String>,
}

/// Check every sample against the expected answers.  A sample with an
/// error or a wrong answer counts as failed and never becomes a latency
/// sample.
pub fn score<'a>(
    samples: impl IntoIterator<Item = &'a Sample>,
    expected: &[Option<u64>],
) -> Scored<'a> {
    let mut scored = Scored {
        good: Vec::new(),
        failed: 0,
        first_error: None,
    };
    for s in samples {
        let problem = match (&s.answer, expected[s.query]) {
            (Err(e), _) => Some(format!("query {}: {e}", s.query)),
            (Ok(_), None) => Some(format!("query {}: no reference answer", s.query)),
            (Ok(got), Some(want)) if *got != want => {
                Some(format!("query {}: wrong answer", s.query))
            }
            _ => None,
        };
        match problem {
            None => scored.good.push(s),
            Some(p) => {
                scored.failed += 1;
                scored.first_error.get_or_insert(p);
            }
        }
    }
    scored
}

/// Per-query medians of the good samples of one phase.
fn per_query_medians(good: &[&Sample], cold: bool, queries: usize) -> Vec<f64> {
    (0..queries)
        .map(|q| {
            let v: Vec<f64> = good
                .iter()
                .filter(|s| s.query == q && s.cold == cold)
                .map(|s| s.ms)
                .collect();
            median(&v)
        })
        .collect()
}

fn record_base(spec: &Spec, run: &Run, xml_bytes: usize) -> Json {
    let mut r = Json::obj();
    r.set("workload", spec.name)
        .set("seed", run.seed)
        .set("seconds", run.seconds)
        .set("trace", run.trace)
        .set("commit", run.commit.as_str())
        .set(
            "available_parallelism",
            crate::stats::available_parallelism(),
        )
        .set("engine_threads", default_threads())
        .set("scale", spec.scale)
        .set("document_bytes", xml_bytes);
    r
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &Spec, run: &Run) -> Outcome {
    let texts = spec.texts();
    let n = texts.len();

    // Set-up runs once before the rounds and again after each round, into
    // a scratch engine: the host's speed drifts over tens of seconds, so
    // set-up and load samples must span the run as the query samples do.
    // Only the first engine serves the rounds; throughput counts round
    // time only.
    let SetUp {
        engine,
        total,
        load,
        mut warmup,
    } = set_up(spec, run.seed, &texts);
    let mut setups = vec![total.as_secs_f64()];
    let mut loads = vec![ms(load)];
    let mut samples = Vec::new();
    let mut wall = Duration::ZERO;
    let deadline = Instant::now() + Duration::from_secs(run.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let start = Instant::now();
        round(&engine, &texts, &mut samples);
        wall += start.elapsed();
        rounds += 1;
        let scratch = set_up(spec, run.seed, &texts);
        setups.push(scratch.total.as_secs_f64());
        loads.push(ms(scratch.load));
        warmup.extend(scratch.warmup);
    }
    let peak_rss = peak_rss_mb();
    drop(engine);

    // Reference answers are computed after everything measured.
    let xml = spec.document(run.seed);
    let (expected, _) = references(&xml, &texts);
    let warm_scored = score(&warmup, &expected);
    let scored = score(&samples, &expected);
    let good = &scored.good;

    let warm = per_query_medians(good, false, n);
    let cold = per_query_medians(good, true, n);
    let all: Vec<f64> = good.iter().map(|s| s.ms).collect();
    let metrics = vec![
        ("setup_s", median(&setups)),
        ("throughput_qps", good.len() as f64 / wall.as_secs_f64()),
        ("warm_geomean_ms", geomean(&warm)),
        ("cold_geomean_ms", geomean(&cold)),
        ("latency_p50_ms", median(&all)),
        ("latency_p99_ms", quantile(&all, 0.99)),
        ("load_p50_ms", median(&loads)),
        ("peak_rss_mb", peak_rss),
    ];

    let mut record = record_base(spec, run, xml.len());
    let per_query: Vec<Json> = (0..n)
        .map(|q| {
            let mut o = Json::obj();
            o.set("query", format!("Q{}", spec.queries[q]))
                .set("cold_median_ms", cold[q])
                .set("warm_median_ms", warm[q]);
            o
        })
        .collect();
    record
        .set("rounds", rounds)
        .set(
            "setup_samples_s",
            setups.iter().map(|&v| Json::from(v)).collect::<Vec<_>>(),
        )
        .set(
            "load_samples_ms",
            loads.iter().map(|&v| Json::from(v)).collect::<Vec<_>>(),
        )
        .set("samples", all.len())
        .set(
            "samples_beyond_p99",
            all.iter().filter(|&&v| v > quantile(&all, 0.99)).count(),
        )
        .set("per_query", per_query)
        .set(
            "first_error",
            scored
                .first_error
                .clone()
                .or(warm_scored.first_error.clone())
                .map_or(Json::Null, Json::from),
        );
    Outcome {
        attempted: samples.len() + warmup.len(),
        failed: scored.failed + warm_scored.failed,
        checks_ok: true,
        metrics,
        record,
    }
}

/// The traced run: per-layer metrics.
pub fn run_traced(spec: &Spec, run: &Run) -> Outcome {
    let texts = spec.texts();
    let n = texts.len();
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);

    // Set-up, one span per layer call.
    let engine = Arc::new(engine_with_threads(0));
    let xml = tr.span("setup", 0, |tr| {
        let xml = tr.span("generate", 0, |_| spec.document(run.seed));
        let doc = tr
            .span("pf-xml.parse", 0, |_| pf_xml::parse(&xml))
            .expect("generated XMark documents are well-formed");
        tr.span("pf-store.shred", 0, |_| engine.load_parsed(DOC_URI, &doc))
            .expect("a parsed document always loads");
        let store = engine
            .registry()
            .id_of(DOC_URI)
            .and_then(|id| engine.registry().store(id))
            .expect("document just loaded");
        tr.span("pf-store.index_build", 0, |_| {
            store.indexes();
        });
        tr.span("pf-store.statistics", 0, |_| engine.doc_statistics(DOC_URI));
        xml
    });
    let store = engine
        .registry()
        .id_of(DOC_URI)
        .and_then(|id| engine.registry().store(id))
        .expect("document loaded");
    let store_bytes = StorageStats::measure(&store).total_bytes() + store.indexes().payload_bytes();
    drop(store);
    let mut checked: Vec<Sample> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| timed_query(&engine, i, true, text))
        .collect();

    // Untraced and traced rounds alternate, so drift hits both alike.
    let threads = default_threads();
    let pool = (threads > 1).then(|| Arc::new(WorkerPool::new(threads - 1)));
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut requests: Vec<(u64, usize, bool)> = Vec::new();
    let mut g = Grouped::default();
    let mut next_request = 1u64;
    let (hits0, misses0) = engine.plan_cache_stats();
    let deadline = Instant::now() + Duration::from_secs(run.seconds) / 2;
    let mut rounds = 0usize;
    while rounds < 2 || Instant::now() < deadline {
        round(&engine, &texts, &mut untraced);
        // Cold: every stage.  Warm: execute the plans the cold pass built,
        // as the plan cache would.
        let mut compiled = Vec::with_capacity(n);
        for (i, text) in texts.iter().enumerate() {
            let request = next_request;
            next_request += 1;
            requests.push((request, i, true));
            let start = Instant::now();
            let (plan, answer) = tr.span("query", request, |tr| {
                match compile_traced(tr, request, &engine, text) {
                    Ok(c) => {
                        let e = execute_traced(tr, request, &engine, &c, threads, pool.as_ref());
                        (Some(c), e)
                    }
                    Err(err) => (None, Err(err)),
                }
            });
            let elapsed = start.elapsed();
            if let Some(c) = &plan {
                layers::push_compiled(&mut g, i, c);
            }
            compiled.push(plan);
            traced.push(Sample {
                query: i,
                cold: true,
                ms: ms(elapsed),
                answer: answer.map(|e| digest(&e.xml)),
            });
        }
        for (i, plan) in compiled.iter().enumerate() {
            let request = next_request;
            next_request += 1;
            requests.push((request, i, false));
            let start = Instant::now();
            let answer = tr.span("query", request, |tr| match plan {
                Some(c) => execute_traced(tr, request, &engine, c, threads, pool.as_ref()),
                None => Err("query did not compile".to_string()),
            });
            let elapsed = start.elapsed();
            if let Ok(e) = &answer {
                layers::push_executed(&mut g, i, e);
            }
            traced.push(Sample {
                query: i,
                cold: false,
                ms: ms(elapsed),
                answer: answer.map(|e| digest(&e.xml)),
            });
        }
        rounds += 1;
    }
    let (hits1, misses1) = engine.plan_cache_stats();
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    let hit_ratio = if lookups > 0 {
        (hits1 - hits0) as f64 / lookups as f64
    } else {
        0.0
    };

    let selfs = tr.self_by_request();
    for &(request, group, cold) in &requests {
        layers::push_stage_times(&mut g, group, request, &selfs, cold, !cold);
    }

    // Tracing overhead and stage coverage, per query and phase.
    let mut overhead_ratios = Vec::new();
    let mut coverage_ratios = Vec::new();
    for cold in [true, false] {
        let plain = per_query_medians(&untraced.iter().collect::<Vec<_>>(), cold, n);
        let with_spans = per_query_medians(&traced.iter().collect::<Vec<_>>(), cold, n);
        for q in 0..n {
            let stage_sums: Vec<f64> = requests
                .iter()
                .filter(|r| r.1 == q && r.2 == cold)
                .map(|r| ms(layers::stage_sum(&selfs, r.0)))
                .collect();
            overhead_ratios.push(with_spans[q] / plain[q]);
            coverage_ratios.push(median(&stage_sums) / plain[q]);
        }
    }
    let overhead = geomean(&overhead_ratios) - 1.0;
    let coverage = geomean(&coverage_ratios);
    let consistent = layers::consistent(overhead, coverage);

    // Warm queries at threads = 1, alternating with the engine default.
    let single = engine_with_threads(1);
    single
        .load_document(DOC_URI, &xml)
        .expect("generated XMark documents are well-formed");
    let mut warm_default = Vec::new();
    let mut warm_single = Vec::new();
    let mut rows_single: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, text) in texts.iter().enumerate() {
        checked.push(timed_query(&single, i, true, text));
    }
    let deadline = Instant::now() + Duration::from_secs(run.seconds) / 2;
    let mut passes = 0usize;
    while passes < 2 || Instant::now() < deadline {
        for (i, text) in texts.iter().enumerate() {
            warm_default.push(timed_query(&engine, i, false, text));
            let start = Instant::now();
            let outcome = single.query_with(text, Profile::Stats);
            let answer = outcome.map(|o| {
                let xml = o.to_xml();
                if let Some(stats) = o.stats {
                    rows_single.entry(i).or_default().push(stats.rows_produced);
                }
                xml
            });
            let elapsed = start.elapsed();
            warm_single.push(Sample {
                query: i,
                cold: false,
                ms: ms(elapsed),
                answer: answer.map(|x| digest(&x)).map_err(|e| e.to_string()),
            });
        }
        passes += 1;
    }
    drop(single);
    let t_default = geomean(&per_query_medians(
        &warm_default.iter().collect::<Vec<_>>(),
        false,
        n,
    ));
    let t_single = geomean(&per_query_medians(
        &warm_single.iter().collect::<Vec<_>>(),
        false,
        n,
    ));
    let traced_rows = g.medians("pf-engine.rows_produced");
    let rows_repeat = rows_single.iter().all(|(q, rows)| {
        rows.windows(2).all(|w| w[0] == w[1])
            && traced_rows.get(q).is_none_or(|r| *r == rows[0] as f64)
    });

    let admission = engine.admission().stats();
    drop(engine);

    // References last, timed for the navigational comparator.
    let (expected, mut baseline_ms) = references(&xml, &texts);
    let mut baseline_per_query: Vec<Vec<f64>> = baseline_ms.iter().map(|&t| vec![t]).collect();
    let baseline_start = Instant::now();
    while baseline_per_query[0].len() < 3 && baseline_start.elapsed() < Duration::from_secs(3) {
        (_, baseline_ms) = references(&xml, &texts);
        for (v, t) in baseline_per_query.iter_mut().zip(baseline_ms) {
            v.push(t);
        }
    }
    let baseline_geomean = geomean(
        &baseline_per_query
            .iter()
            .map(|v| median(v))
            .collect::<Vec<_>>(),
    );

    // Traced answers must match the untraced ones byte for byte; both
    // must match the navigational engine.
    let all_samples: Vec<&Sample> = checked
        .iter()
        .chain(&untraced)
        .chain(&traced)
        .chain(&warm_default)
        .chain(&warm_single)
        .collect();
    let scored = score(all_samples.iter().copied(), &expected);

    let span_of = |name: &'static str| selfs.get(&(0, name)).map_or(0.0, |d| ms(*d));
    let mut metrics = vec![
        ("pf-xml.parse_ms", span_of("pf-xml.parse")),
        ("pf-store.shred_ms", span_of("pf-store.shred")),
        ("pf-store.index_build_ms", span_of("pf-store.index_build")),
        ("pf-store.statistics_ms", span_of("pf-store.statistics")),
        (
            "pf-store.bytes_per_xml_byte",
            store_bytes as f64 / xml.len() as f64,
        ),
        ("pf-engine.plan_cache_hit_ratio", hit_ratio),
        (
            "pf-engine.admission_waited",
            admission.waited as f64 / admission.admitted.max(1) as f64,
        ),
        ("pf-engine.pool_speedup", t_single / t_default),
        ("pf-baseline.warm_geomean_ms", baseline_geomean),
        ("trace.overhead_pct", overhead * 100.0),
        ("trace.stage_coverage", coverage),
        ("trace.consistent", if consistent { 1.0 } else { 0.0 }),
    ];
    metrics.extend(layers::stage_metrics(&g));

    let spans_path = crate::spans_path(spec.name, run.seed);
    let spans_written = crate::trace::write_spans(&spans_path, &[&tr]).is_ok();
    let mut record = record_base(spec, run, xml.len());
    record
        .set("rounds", rounds)
        .set("pool_passes", passes)
        .set("threads_default", threads)
        .set("warm_geomean_default_ms", t_default)
        .set("warm_geomean_threads1_ms", t_single)
        .set("rows_produced_repeat", rows_repeat)
        .set(
            "rows_produced_threads1",
            rows_single
                .iter()
                .map(|(q, rows)| {
                    let mut o = Json::obj();
                    o.set("query", format!("Q{}", spec.queries[*q]))
                        .set("rows", rows[0]);
                    o
                })
                .collect::<Vec<_>>(),
        )
        .set("trace_consistent", consistent)
        .set("spans", tr.spans().len())
        .set(
            "spans_file",
            if spans_written {
                Json::from(spans_path.display().to_string())
            } else {
                Json::Null
            },
        )
        .set(
            "first_error",
            scored.first_error.clone().map_or(Json::Null, Json::from),
        );
    Outcome {
        attempted: all_samples.len(),
        failed: scored.failed,
        checks_ok: rows_repeat && consistent,
        metrics,
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_expected_answer_is_a_failure() {
        let texts = PATH.texts();
        let xml = generate(&GeneratorConfig {
            scale: 0.01,
            seed: 5,
        });
        let engine = engine_with_threads(1);
        engine.load_document(DOC_URI, &xml).unwrap();
        let mut samples = Vec::new();
        round(&engine, &texts, &mut samples);
        let (mut expected, _) = references(&xml, &texts);
        let clean = score(&samples, &expected);
        assert_eq!(clean.failed, 0, "{:?}", clean.first_error);
        assert_eq!(clean.good.len(), 2 * texts.len());

        // Corrupt the expected answer of one query: both of its samples
        // (cold and warm) fail and leave the latency samples.
        expected[3] = expected[3].map(|d| d ^ 1);
        let corrupted = score(&samples, &expected);
        assert_eq!(corrupted.failed, 2);
        assert_eq!(corrupted.good.len(), 2 * texts.len() - 2);
        assert!(corrupted.good.iter().all(|s| s.query != 3));
        assert!(corrupted.first_error.unwrap().contains("wrong answer"));
    }

    #[test]
    fn errors_are_failures() {
        let samples = vec![Sample {
            query: 0,
            cold: true,
            ms: 1.0,
            answer: Err("boom".into()),
        }];
        let scored = score(&samples, &[Some(1)]);
        assert_eq!((scored.failed, scored.good.len()), (1, 0));
    }
}
