//! The `serve-mix` workload: a `pf-serve` server on loopback inside the
//! benchmark process (engine `threads = 1`) and two client connections in
//! a closed loop, taking turns on one driver thread, so one request is in
//! flight at a time.  Each connection owns four small XMark documents with
//! two versions each; every request is a `QUERY` with a text of its own
//! (an XMark shape with seeded literals), and every 20th request is a
//! `LOAD` that swaps one of the connection's documents to its other
//! version, so every answer has exactly one expected value.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pf_baseline::BaselineEngine;
use pf_engine::{EngineOptions, Pathfinder, Profile, Session};
use pf_serve::{escape_line, handle_line, unescape_line, Server};
use pf_store::StorageStats;
use pf_xmark::{generate, GeneratorConfig, XmarkStats};

use crate::json::Json;
use crate::layers::{self, Grouped};
use crate::stats::{available_parallelism, digest, geomean, median, ms, peak_rss_mb, quantile, us};
use crate::trace::{compile_traced, execute_traced, Tracer};
use crate::{Outcome, Run};

/// Generator scale of every document.
const SCALE: f64 = 0.1;
const CONNECTIONS: usize = 2;
const DOCS_PER_CONNECTION: usize = 4;
/// Every this many requests of a connection, one is a `LOAD`.
const LOAD_EVERY: usize = 20;
const SHAPES: usize = 8;
/// Texts per shape and connection that warm requests choose from: the
/// last ones sent.  Answer sizes differ with the literals, so warm
/// requests span many of them.
const WARM_TEXTS: usize = 8;
/// Segments of the timed phase.  A scratch set-up runs between two, so
/// `setup_s` is the median of this many set-ups, and `latency_p99_ms` is
/// the median of the segments' p99s.
const SEGMENTS: usize = 5;
/// Request pairs (TCP and in-process) of the transport-overhead probe.
const PROBE_PAIRS: usize = 512;
/// Fewest `QUERY` samples a segment needs, so ten lie beyond its p99.
const MIN_SEGMENT_QUERIES: usize = 1000;

const WORDS: [&str; 16] = [
    "gold", "silver", "bargain", "vintage", "rare", "mint", "antique", "shiny", "carved", "woven",
    "painted", "signed", "limited", "edition", "classic", "modern",
];
const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

/// splitmix64: a small, seedable generator for the query literals.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

fn doc_name(doc: usize) -> String {
    format!("s{doc}.xml")
}

/// The documents: `xml[doc][version]`.
struct Corpus {
    xml: Vec<[String; 2]>,
    /// `LOAD` request lines, newline-terminated, per document and version.
    load_lines: Vec<[String; 2]>,
}

impl Corpus {
    fn generate(seed: u64) -> Corpus {
        let xml: Vec<[String; 2]> = (0..CONNECTIONS * DOCS_PER_CONNECTION)
            .map(|doc| {
                [0u64, 1].map(|version| {
                    let mut rng = Rng::new(seed ^ ((doc as u64) << 8 | version));
                    generate(&GeneratorConfig {
                        scale: SCALE,
                        seed: rng.next_u64(),
                    })
                })
            })
            .collect();
        let load_lines = xml
            .iter()
            .enumerate()
            .map(|(doc, versions)| {
                [0, 1].map(|v| format!("LOAD {} {}\n", doc_name(doc), escape_line(&versions[v])))
            })
            .collect();
        Corpus { xml, load_lines }
    }

    fn bytes(&self) -> usize {
        self.xml.iter().flatten().map(String::len).sum()
    }
}

/// The query text of `shape` on `doc`.  `unique` is folded into a numeric
/// literal, so no two requests of one connection share a text.
fn shape_text(shape: usize, doc: &str, rng: &mut Rng, unique: usize) -> String {
    let persons = XmarkStats::for_scale(SCALE).persons as u64;
    let frac = format!("{:06}", unique % 1_000_000);
    let mut num = |lo: u64, hi: u64| format!("{}.{frac}", lo + rng.below(hi - lo));
    match shape {
        0 => {
            let income = num(9_000, 100_000);
            let person = rng.below(persons);
            format!(
                r#"for $b in doc("{doc}")/site/people/person[@id = "person{person}"] where number($b/profile/@income) >= {income} return $b/name/text()"#
            )
        }
        1 => {
            let price = num(1, 400);
            format!(
                r#"count(for $i in doc("{doc}")/site/closed_auctions/closed_auction where number($i/price) >= {price} return $i/price)"#
            )
        }
        2 => {
            let income = num(9_000, 100_000);
            format!(
                r#"count(doc("{doc}")/site/people/person/profile[number(@income) >= {income}])"#
            )
        }
        3 => {
            let quantity = num(0, 4);
            let word = WORDS[rng.below(WORDS.len() as u64) as usize];
            format!(
                r#"for $i in doc("{doc}")/site//item where contains(string($i/description), "{word}") and number($i/quantity) >= {quantity} return $i/name/text()"#
            )
        }
        4 => {
            let quantity = num(0, 4);
            let region = REGIONS[rng.below(REGIONS.len() as u64) as usize];
            format!(
                r#"for $i in doc("{doc}")/site/regions/{region}/item where number($i/quantity) >= {quantity} return element item {{ attribute name {{ $i/name/text() }}, $i/description }}"#
            )
        }
        5 => {
            let initial = num(0, 18);
            format!(
                r#"for $b in doc("{doc}")/site/open_auctions/open_auction where number($b/initial) >= {initial} return element increase {{ $b/bidder[1]/increase/text() }}"#
            )
        }
        6 => {
            let income = num(50_000, 100_000);
            format!(
                r#"for $p in doc("{doc}")/site/people/person where number($p/profile/@income) >= {income} return element item {{ attribute person {{ $p/name/text() }}, count(for $t in doc("{doc}")/site/closed_auctions/closed_auction where $t/buyer/@person = $p/@id return $t) }}"#
            )
        }
        _ => {
            let income = num(80_000, 100_000);
            format!(
                r#"for $p in doc("{doc}")/site/people/person where number($p/profile/@income) > {income} return element items {{ attribute name {{ $p/name/text() }}, count(for $o in doc("{doc}")/site/open_auctions/open_auction/initial where number($p/profile/@income) > 5000 * number($o) return $o) }}"#
            )
        }
    }
}

/// One request of a connection's script.
#[derive(Debug, Clone)]
enum Op {
    Query {
        shape: usize,
        doc: usize,
        version: usize,
        text: String,
    },
    Load {
        doc: usize,
        version: usize,
    },
}

/// The request sequence of one connection: deterministic in the seed.
struct Script {
    conn: usize,
    rng: Rng,
    requests: usize,
    queries: usize,
    versions: [usize; DOCS_PER_CONNECTION],
}

impl Script {
    fn new(seed: u64, conn: usize) -> Script {
        Script {
            conn,
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(conn as u64 + 1)),
            requests: 0,
            queries: 0,
            versions: [0; DOCS_PER_CONNECTION],
        }
    }

    fn next_op(&mut self) -> Op {
        self.requests += 1;
        if self.requests.is_multiple_of(LOAD_EVERY) {
            let local = (self.requests / LOAD_EVERY) % DOCS_PER_CONNECTION;
            self.versions[local] ^= 1;
            return Op::Load {
                doc: self.conn * DOCS_PER_CONNECTION + local,
                version: self.versions[local],
            };
        }
        let q = self.queries;
        self.queries += 1;
        let shape = q % SHAPES;
        let local = (q / SHAPES) % DOCS_PER_CONNECTION;
        let doc = self.conn * DOCS_PER_CONNECTION + local;
        Op::Query {
            shape,
            doc,
            version: self.versions[local],
            text: shape_text(shape, &doc_name(doc), &mut self.rng, q),
        }
    }

    /// The version the server holds of this connection's `doc` once every
    /// request so far has been answered.
    fn version_of(&self, doc: usize) -> usize {
        self.versions[doc - self.conn * DOCS_PER_CONNECTION]
    }
}

/// A warm request: a recent `(shape, doc, text)` of a connection, expected
/// against the version its document has now.  A `LOAD` may have swapped
/// that document after the text was sent.
fn warm_op(script: &Script, (shape, doc, text): &(usize, usize, String)) -> Op {
    Op::Query {
        shape: *shape,
        doc: *doc,
        version: script.version_of(*doc),
        text: text.clone(),
    }
}

/// The warm-up text of `shape` on `doc`: literals no timed request uses.
fn warmup_text(seed: u64, shape: usize, doc: usize) -> String {
    let mut rng = Rng::new(seed ^ 0xA5A5 ^ (doc as u64) << 16);
    shape_text(shape, &doc_name(doc), &mut rng, 999_000 + shape)
}

/// What happened to one request.
#[derive(Debug, Clone)]
struct Entry {
    op: Op,
    ms: f64,
    /// Answer digest of a query; `0` for a load that succeeded.
    answer: Result<u64, String>,
    phase: Phase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    /// In this segment of the timed phase.
    Timed(usize),
    /// Plan-cached repeats, interleaved with the timed requests.
    Warm,
    /// Stage-driven with spans (traced runs).
    Traced,
    /// `query_with`, interleaved with traced requests (traced runs).
    Untraced,
}

/// A line-protocol client.
///
/// The server writes a reply and its newline in two writes, and Nagle's
/// algorithm holds the newline until the reply is acknowledged.  A client
/// that delays its ACK (Linux waits ~40 ms) would then time that wait, not
/// the server, so this one acknowledges every segment it reads at once.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    text: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            line: Vec::new(),
            text: String::new(),
        })
    }

    /// Send one newline-terminated request and read the response line.
    fn send(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        quick_ack(&self.writer);
        self.line.clear();
        loop {
            let available = self.reader.fill_buf()?;
            if available.is_empty() {
                break;
            }
            if let Some(end) = available.iter().position(|&b| b == b'\n') {
                self.line.extend_from_slice(&available[..=end]);
                self.reader.consume(end + 1);
                break;
            }
            let n = available.len();
            self.line.extend_from_slice(available);
            self.reader.consume(n);
            // Part of the line is here: acknowledge it, so the server may
            // send the rest.
            quick_ack(&self.writer);
        }
        self.text.clear();
        self.text.push_str(
            std::str::from_utf8(&self.line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
        );
        Ok(self.text.trim_end_matches(['\r', '\n']))
    }
}

/// Acknowledge received data now, and the next segment as it arrives
/// (`TCP_QUICKACK`; the kernel clears it again by itself).
#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the descriptor is an open socket owned by `stream`, and the
    // value points to an `i32` of the length passed.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_stream: &TcpStream) {}

/// A server on a loopback port, running on its own thread.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

fn start(engine: Arc<Pathfinder>) -> Running {
    let server = Server::bind(engine, "127.0.0.1:0").expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address");
    let thread = std::thread::spawn(move || server.run());
    Running { addr, thread }
}

/// Shut the server down and wait for its thread.  Every client must have
/// sent `QUIT` first.
fn stop(running: Running) {
    if let Ok(mut c) = Client::connect(running.addr) {
        let _ = c.send("SHUTDOWN\n");
    }
    let _ = running.thread.join();
}

/// Median TCP round trip minus median `handle_line` time, in µs, over the
/// same (plan-cached) requests sent alternately both ways.
fn transport_overhead_us(engine: Arc<Pathfinder>, requests: &[String]) -> f64 {
    let running = start(Arc::clone(&engine));
    let session = engine.session();
    let mut client = Client::connect(running.addr).expect("connect to the loopback server");
    let lines: Vec<String> = requests.iter().map(|r| format!("{r}\n")).collect();
    for line in &lines {
        let _ = client.send(line);
    }
    let mut tcp = Vec::new();
    let mut local = Vec::new();
    let reps = (PROBE_PAIRS / lines.len()).max(1);
    for _ in 0..reps {
        for (line, request) in lines.iter().zip(requests) {
            let start = Instant::now();
            let _ = client.send(line);
            tcp.push(us(start.elapsed()));
            let start = Instant::now();
            std::hint::black_box(handle_line(&session, request));
            local.push(us(start.elapsed()));
        }
    }
    let _ = client.send("QUIT\n");
    drop(client);
    stop(running);
    median(&tcp) - median(&local)
}

fn engine_with_threads(threads: usize) -> Pathfinder {
    Pathfinder::with_options(EngineOptions::builder().threads(threads).build())
}

/// An engine with every document's first version loaded and one
/// warm-up pass (statistics and index sidecars built).
struct SetUp {
    engine: Arc<Pathfinder>,
    corpus: Corpus,
    total: Duration,
    warmup: Vec<Entry>,
}

fn set_up(seed: u64) -> SetUp {
    let start = Instant::now();
    let corpus = Corpus::generate(seed);
    let engine = Arc::new(engine_with_threads(1));
    for (doc, versions) in corpus.xml.iter().enumerate() {
        engine
            .load_document(&doc_name(doc), &versions[0])
            .expect("generated XMark documents are well-formed");
    }
    let warmup = warm_up(&engine, seed);
    SetUp {
        engine,
        corpus,
        total: start.elapsed(),
        warmup,
    }
}

fn warm_up(engine: &Pathfinder, seed: u64) -> Vec<Entry> {
    let mut out = Vec::new();
    for doc in 0..CONNECTIONS * DOCS_PER_CONNECTION {
        for shape in 0..SHAPES {
            let text = warmup_text(seed, shape, doc);
            let start = Instant::now();
            let answer = engine.query_with(&text, Profile::None).map(|o| o.to_xml());
            out.push(Entry {
                ms: ms(start.elapsed()),
                answer: answer.map(|x| digest(&x)).map_err(|e| e.to_string()),
                op: Op::Query {
                    shape,
                    doc,
                    version: 0,
                    text,
                },
                phase: Phase::Warmup,
            });
        }
    }
    out
}

/// Parse a `QUERY` response into an answer digest.
fn query_answer(response: io::Result<&str>) -> Result<u64, String> {
    match response {
        Ok(line) => match line.strip_prefix("OK ") {
            Some(payload) => Ok(digest(&unescape_line(payload))),
            None if line == "OK" => Ok(digest("")),
            None => Err(line.to_string()),
        },
        Err(e) => Err(e.to_string()),
    }
}

/// One closed-loop connection: its script, its log, and the last texts it
/// sent.
struct Connection {
    client: Client,
    script: Script,
    log: Vec<Entry>,
    /// `(shape, doc, text)` of the last `WARM_TEXTS` queries per shape.
    recent: VecDeque<(usize, usize, String)>,
    /// Chooses the text of each warm request.
    warm_rng: Rng,
}

impl Connection {
    fn open(addr: SocketAddr, seed: u64, conn: usize) -> Connection {
        Connection {
            client: Client::connect(addr).expect("connect to the loopback server"),
            script: Script::new(seed, conn),
            log: Vec::new(),
            recent: VecDeque::new(),
            warm_rng: Rng::new(seed ^ 0x5EED ^ (conn as u64) << 32),
        }
    }

    /// Send the script's next request as a timed one of `segment`.  Returns
    /// whether it was a query.
    fn step(&mut self, corpus: &Corpus, segment: usize) -> bool {
        let op = self.script.next_op();
        let (start, answer) = match &op {
            Op::Query { text, .. } => {
                let line = format!("QUERY {text}\n");
                let start = Instant::now();
                (start, query_answer(self.client.send(&line)))
            }
            Op::Load { doc, version } => {
                let start = Instant::now();
                let expected = format!("OK loaded {}", doc_name(*doc));
                let answer = match self.client.send(&corpus.load_lines[*doc][*version]) {
                    Ok(line) if line == expected => Ok(0),
                    Ok(line) => Err(line.chars().take(200).collect()),
                    Err(e) => Err(e.to_string()),
                };
                (start, answer)
            }
        };
        let elapsed = start.elapsed();
        let query = matches!(op, Op::Query { .. });
        if let Op::Query {
            shape, doc, text, ..
        } = &op
        {
            // Shapes take turns, so this keeps `WARM_TEXTS` of each.
            if self.recent.len() == SHAPES * WARM_TEXTS {
                self.recent.pop_front();
            }
            self.recent.push_back((*shape, *doc, text.clone()));
        }
        self.log.push(Entry {
            op,
            ms: ms(elapsed),
            answer,
            phase: Phase::Timed(segment),
        });
        query
    }

    /// Re-send one recent text, chosen at random, through `handle_line` on
    /// an in-process session: a plan-cached request on the server's request
    /// path without the socket, whose wake-ups would swamp it.  Returns the
    /// time it took.
    fn warm(&mut self, session: &Session<'_>) -> Duration {
        if self.recent.is_empty() {
            return Duration::ZERO;
        }
        let pick = self.warm_rng.below(self.recent.len() as u64) as usize;
        let op = warm_op(&self.script, &self.recent[pick]);
        let Op::Query { text, .. } = &op else {
            unreachable!("warm requests are queries");
        };
        let line = format!("QUERY {text}");
        let start = Instant::now();
        let answer = query_answer(Ok(handle_line(session, &line).line()));
        let elapsed = start.elapsed();
        self.log.push(Entry {
            ms: ms(elapsed),
            answer,
            op,
            phase: Phase::Warm,
        });
        elapsed
    }

    /// Say `QUIT` and return the log.
    fn finish(mut self) -> Vec<Entry> {
        let _ = self.client.send("QUIT\n");
        self.log
    }
}

/// Check every entry against the navigational engine: one reference per
/// distinct text and document version.  Returns per-entry verdicts and the
/// first problem.
fn check(entries: &[&Entry], corpus: &Corpus) -> (Vec<bool>, Option<String>) {
    let mut baselines: HashMap<(usize, usize), BaselineEngine> = HashMap::new();
    let mut memo: HashMap<(usize, usize, &str), Option<u64>> = HashMap::new();
    let mut first_error = None;
    let verdicts = entries
        .iter()
        .map(|e| {
            let problem = match (&e.op, &e.answer) {
                (_, Err(err)) => Some(err.clone()),
                (Op::Load { .. }, Ok(_)) => None,
                (
                    Op::Query {
                        shape,
                        doc,
                        version,
                        text,
                    },
                    Ok(got),
                ) => {
                    let want = *memo
                        .entry((*doc, *version, text.as_str()))
                        .or_insert_with(|| {
                            let baseline = baselines.entry((*doc, *version)).or_insert_with(|| {
                                let mut b = BaselineEngine::new();
                                b.load_document(&doc_name(*doc), &corpus.xml[*doc][*version])
                                    .expect("generated XMark documents are well-formed");
                                b
                            });
                            baseline.query(text).map(|r| digest(&r.to_xml())).ok()
                        });
                    match want {
                        None => Some(format!("shape {shape}: no reference answer")),
                        Some(w) if w != *got => {
                            Some(format!("shape {shape}: wrong answer to {text}"))
                        }
                        Some(_) => None,
                    }
                }
            };
            if let Some(p) = &problem {
                first_error.get_or_insert_with(|| p.clone());
            }
            problem.is_none()
        })
        .collect();
    (verdicts, first_error)
}

fn record_base(run: &Run, corpus: &Corpus, threads: usize) -> Json {
    let mut r = Json::obj();
    r.set("workload", "serve-mix")
        .set("seed", run.seed)
        .set("seconds", run.seconds)
        .set("trace", run.trace)
        .set("commit", run.commit.as_str())
        .set("available_parallelism", available_parallelism())
        .set("engine_threads", threads)
        .set("connections", CONNECTIONS)
        .set("scale", SCALE)
        .set("document_bytes", corpus.bytes());
    r
}

/// Geometric mean over shapes of each shape's median latency.
fn shape_geomean<'a>(entries: impl Iterator<Item = &'a Entry>) -> f64 {
    geomean(
        &by_shape(entries)
            .values()
            .map(|v| median(v))
            .collect::<Vec<_>>(),
    )
}

/// Geometric mean over query texts of each text's median latency.  The
/// answer size of a shape swings with its literals, so a per-shape median
/// over a few dozen texts jumps between them; every text counts here.
fn text_geomean<'a>(entries: impl Iterator<Item = &'a Entry>) -> f64 {
    let mut out: HashMap<&str, Vec<f64>> = HashMap::new();
    for e in entries {
        if let Op::Query { text, .. } = &e.op {
            out.entry(text).or_default().push(e.ms);
        }
    }
    geomean(&out.values().map(|v| median(v)).collect::<Vec<_>>())
}

/// Query latencies grouped by shape.
fn by_shape<'a>(entries: impl Iterator<Item = &'a Entry>) -> BTreeMap<usize, Vec<f64>> {
    let mut out: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for e in entries {
        if let Op::Query { shape, .. } = e.op {
            out.entry(shape).or_default().push(e.ms);
        }
    }
    out
}

/// The untraced run: end-to-end metrics.
pub fn run(run: &Run) -> Outcome {
    // Set-up is timed before the timed phase and again, into a scratch
    // engine, between its segments: the host's speed drifts over tens of
    // seconds, so set-up samples must span the run as the request samples
    // do.  The server is idle while a scratch set-up runs.
    let SetUp {
        engine,
        corpus,
        total,
        mut warmup,
    } = set_up(run.seed);
    let mut setups = vec![total.as_secs_f64()];
    let running = start(Arc::clone(&engine));
    let mut conns: Vec<Connection> = (0..CONNECTIONS)
        .map(|conn| Connection::open(running.addr, run.seed, conn))
        .collect();
    let segment = Duration::from_secs(run.seconds) / SEGMENTS as u32;
    let session = engine.session();
    let mut wall = Duration::ZERO;
    for seg in 0..SEGMENTS {
        let start_time = Instant::now();
        let until = start_time + segment;
        let mut queries = 0;
        // Warm requests are interleaved with the timed ones, so host drift
        // hits both alike; their time is not part of the timed wall time.
        let mut warm = Duration::ZERO;
        while Instant::now() < until || queries < MIN_SEGMENT_QUERIES {
            for c in &mut conns {
                queries += usize::from(c.step(&corpus, seg));
                warm += c.warm(&session);
            }
        }
        wall += start_time.elapsed() - warm;
        if seg + 1 < SEGMENTS {
            let scratch = set_up(run.seed);
            setups.push(scratch.total.as_secs_f64());
            warmup.extend(scratch.warmup);
        }
    }
    let logs: Vec<Vec<Entry>> = conns.into_iter().map(Connection::finish).collect();
    stop(running);
    let peak_rss = peak_rss_mb();
    drop(engine);

    let entries: Vec<&Entry> = warmup.iter().chain(logs.iter().flatten()).collect();
    let (verdicts, first_error) = check(&entries, &corpus);
    let failed = verdicts.iter().filter(|ok| !**ok).count();
    let good = || {
        entries
            .iter()
            .zip(&verdicts)
            .filter(|(_, ok)| **ok)
            .map(|(e, _)| *e)
    };
    let mut per_segment = vec![Vec::new(); SEGMENTS];
    for e in good() {
        if let (Phase::Timed(seg), Op::Query { .. }) = (e.phase, &e.op) {
            per_segment[seg].push(e.ms);
        }
    }
    let timed_queries = per_segment.concat();
    let loads: Vec<f64> = good()
        .filter(|e| matches!(e.op, Op::Load { .. }))
        .map(|e| e.ms)
        .collect();
    // A slow spell of the host lifts one segment's tail; the median over
    // segments is steady against it.
    let segment_p99: Vec<f64> = per_segment.iter().map(|v| quantile(v, 0.99)).collect();
    let p99 = median(&segment_p99);
    let metrics = vec![
        ("setup_s", median(&setups)),
        (
            "throughput_qps",
            timed_queries.len() as f64 / wall.as_secs_f64(),
        ),
        (
            "warm_geomean_ms",
            text_geomean(good().filter(|e| e.phase == Phase::Warm)),
        ),
        (
            "cold_geomean_ms",
            shape_geomean(good().filter(|e| matches!(e.phase, Phase::Timed(_)))),
        ),
        ("latency_p50_ms", median(&timed_queries)),
        ("latency_p99_ms", p99),
        ("load_p50_ms", median(&loads)),
        ("peak_rss_mb", peak_rss),
    ];
    let mut record = record_base(run, &corpus, 1);
    record
        .set(
            "setup_samples_s",
            setups.iter().map(|&v| Json::from(v)).collect::<Vec<_>>(),
        )
        .set("query_samples", timed_queries.len())
        .set(
            "segments",
            per_segment
                .iter()
                .zip(&segment_p99)
                .map(|(v, &p)| {
                    let mut o = Json::obj();
                    o.set("queries", v.len())
                        .set("p50_ms", median(v))
                        .set("p99_ms", p)
                        .set("beyond_p99", v.iter().filter(|&&t| t > p).count());
                    o
                })
                .collect::<Vec<_>>(),
        )
        .set("load_samples", loads.len())
        .set(
            "per_shape",
            by_shape(good().filter(|e| matches!(e.phase, Phase::Timed(_))))
                .iter()
                .map(|(shape, v)| {
                    let mut o = Json::obj();
                    o.set("shape", *shape)
                        .set("median_ms", median(v))
                        .set("beyond_p99", v.iter().filter(|&&t| t > p99).count());
                    o
                })
                .collect::<Vec<_>>(),
        )
        .set("first_error", first_error.map_or(Json::Null, Json::from));
    Outcome {
        attempted: entries.len(),
        failed,
        checks_ok: per_segment.iter().all(|v| v.len() >= MIN_SEGMENT_QUERIES),
        metrics,
        record,
    }
}

/// Load one document version with a span per layer call.
fn load_traced(
    tr: &mut Tracer,
    request: u64,
    engine: &Pathfinder,
    doc: usize,
    xml: &str,
) -> Result<(), String> {
    let name = doc_name(doc);
    tr.span("load", request, |tr| {
        let parsed = tr
            .span("pf-xml.parse", request, |_| pf_xml::parse(xml))
            .map_err(|e| e.to_string())?;
        tr.span("pf-store.shred", request, |_| {
            engine.load_parsed(&name, &parsed)
        })
        .map_err(|e| e.to_string())?;
        let store = engine
            .registry()
            .id_of(&name)
            .and_then(|id| engine.registry().store(id))
            .ok_or("document vanished")?;
        tr.span("pf-store.index_build", request, |_| {
            store.indexes();
        });
        tr.span("pf-store.statistics", request, |_| {
            engine.doc_statistics(&name)
        });
        Ok(())
    })
}

/// What one driving thread of the traced run leaves: its spans, its
/// executor counters, and its requests with their ids.
type Driven = (Tracer, Grouped, Vec<(u64, Entry)>);

/// One driving thread of the traced run: the connection's script, in
/// process, alternating stage-driven (traced) and `query_with` requests.
fn drive(
    engine: &Pathfinder,
    corpus: &Corpus,
    seed: u64,
    conn: usize,
    origin: Instant,
    deadline: Instant,
) -> Driven {
    let mut tr = Tracer::new(origin);
    let mut g = Grouped::default();
    let mut script = Script::new(seed, conn);
    let mut log = Vec::new();
    let mut n = 0u64;
    while n < 2 * SHAPES as u64 * 2 || Instant::now() < deadline {
        n += 1;
        let request = ((conn as u64 + 1) << 32) | n;
        let op = script.next_op();
        let start = Instant::now();
        let (answer, phase) = match &op {
            Op::Load { doc, version } => (
                load_traced(&mut tr, request, engine, *doc, &corpus.xml[*doc][*version])
                    .map(|()| 0),
                Phase::Traced,
            ),
            // Traced and untraced requests alternate per shape cycle.
            Op::Query { shape, text, .. } if (n / SHAPES as u64).is_multiple_of(2) => (
                tr.span("query", request, |tr| {
                    let c = compile_traced(tr, request, engine, text)?;
                    execute_traced(tr, request, engine, &c, 1, None).map(|e| (c, e))
                })
                .map(|(c, e)| {
                    layers::push_compiled(&mut g, *shape, &c);
                    layers::push_executed(&mut g, *shape, &e);
                    digest(&e.xml)
                }),
                Phase::Traced,
            ),
            Op::Query { text, .. } => (
                engine
                    .query_with(text, Profile::None)
                    .map(|o| digest(&o.to_xml()))
                    .map_err(|e| e.to_string()),
                Phase::Untraced,
            ),
        };
        log.push((
            request,
            Entry {
                op,
                ms: ms(start.elapsed()),
                answer,
                phase,
            },
        ));
    }
    (tr, g, log)
}

/// The traced run: per-layer metrics.
pub fn run_traced(run: &Run) -> Outcome {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let corpus = tr.span("generate", 0, |_| Corpus::generate(run.seed));
    let engine = Arc::new(engine_with_threads(1));
    let mut setup_bytes = Vec::new();
    for (doc, versions) in corpus.xml.iter().enumerate() {
        load_traced(&mut tr, doc as u64 + 1, &engine, doc, &versions[0])
            .expect("generated XMark documents are well-formed");
        let store = engine
            .registry()
            .id_of(&doc_name(doc))
            .and_then(|id| engine.registry().store(id))
            .expect("document just loaded");
        let bytes = StorageStats::measure(&store).total_bytes() + store.indexes().payload_bytes();
        setup_bytes.push(bytes as f64 / versions[0].len() as f64);
    }
    let mut entries: Vec<Entry> = warm_up(&engine, run.seed);

    let probe: Vec<String> = (0..SHAPES)
        .map(|shape| format!("QUERY {}", warmup_text(run.seed, shape, 0)))
        .collect();
    let overhead_us = transport_overhead_us(Arc::clone(&engine), &probe);

    let (hits0, misses0) = engine.plan_cache_stats();
    let deadline = Instant::now() + Duration::from_secs(run.seconds) * 7 / 10;
    let driven: Vec<Driven> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (engine, corpus) = (&*engine, &corpus);
                scope.spawn(move || drive(engine, corpus, run.seed, conn, origin, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driving thread"))
            .collect()
    });
    let (hits1, misses1) = engine.plan_cache_stats();
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    let hit_ratio = if lookups > 0 {
        (hits1 - hits0) as f64 / lookups as f64
    } else {
        0.0
    };
    let admission = engine.admission().stats();

    // Per-layer samples, grouped by shape.
    let mut g = Grouped::default();
    let mut load_parse = Vec::new();
    let mut load_shred = Vec::new();
    let mut load_index = Vec::new();
    let mut load_stats = Vec::new();
    let mut traced_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut untraced_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut stage_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut tracers: Vec<&Tracer> = vec![&tr];
    let setup_selfs = tr.self_by_request();
    let mut push_load = |selfs: &BTreeMap<(u64, &'static str), Duration>, request: u64| {
        let get = |name: &'static str| selfs.get(&(request, name)).map_or(0.0, |d| ms(*d));
        load_parse.push(get("pf-xml.parse"));
        load_shred.push(get("pf-store.shred"));
        load_index.push(get("pf-store.index_build"));
        load_stats.push(get("pf-store.statistics"));
    };
    for doc in 0..corpus.xml.len() {
        push_load(&setup_selfs, doc as u64 + 1);
    }
    for (dtr, counters, log) in &driven {
        g.merge(counters);
        tracers.push(dtr);
        let selfs = dtr.self_by_request();
        for (request, e) in log {
            match (&e.op, e.phase) {
                (Op::Load { .. }, _) => push_load(&selfs, *request),
                (Op::Query { shape, .. }, Phase::Traced) => {
                    layers::push_stage_times(&mut g, *shape, *request, &selfs, true, true);
                    traced_ms.entry(*shape).or_default().push(e.ms);
                    stage_ms
                        .entry(*shape)
                        .or_default()
                        .push(ms(layers::stage_sum(&selfs, *request)));
                }
                (Op::Query { shape, .. }, _) => untraced_ms.entry(*shape).or_default().push(e.ms),
            }
        }
    }
    let ratio = |a: &BTreeMap<usize, Vec<f64>>| {
        geomean(
            &a.iter()
                .filter_map(|(s, v)| untraced_ms.get(s).map(|u| median(v) / median(u)))
                .collect::<Vec<_>>(),
        )
    };
    let overhead = ratio(&traced_ms) - 1.0;
    let coverage = ratio(&stage_ms);
    let consistent = layers::consistent(overhead, coverage);

    for (_, _, log) in &driven {
        entries.extend(log.iter().map(|(_, e)| e.clone()));
    }
    let refs: Vec<&Entry> = entries.iter().collect();
    let (verdicts, first_error) = check(&refs, &corpus);
    let failed = verdicts.iter().filter(|ok| !**ok).count();

    let mut metrics = vec![
        ("pf-xml.parse_ms", median(&load_parse)),
        ("pf-store.shred_ms", median(&load_shred)),
        ("pf-store.index_build_ms", median(&load_index)),
        ("pf-store.statistics_ms", median(&load_stats)),
        ("pf-store.bytes_per_xml_byte", median(&setup_bytes)),
        ("pf-engine.plan_cache_hit_ratio", hit_ratio),
        (
            "pf-engine.admission_waited",
            admission.waited as f64 / admission.admitted.max(1) as f64,
        ),
        ("pf-serve.overhead_us", overhead_us),
        ("trace.overhead_pct", overhead * 100.0),
        ("trace.stage_coverage", coverage),
        ("trace.consistent", if consistent { 1.0 } else { 0.0 }),
    ];
    metrics.extend(layers::stage_metrics(&g));

    let spans_path = crate::spans_path("serve-mix", run.seed);
    let spans_written = crate::trace::write_spans(&spans_path, &tracers).is_ok();
    let mut record = record_base(run, &corpus, 1);
    record
        .set("loads_traced", load_parse.len())
        .set("trace_consistent", consistent)
        .set("spans", layers::span_count(&tracers))
        .set(
            "spans_file",
            if spans_written {
                Json::from(spans_path.display().to_string())
            } else {
                Json::Null
            },
        )
        .set("first_error", first_error.map_or(Json::Null, Json::from));
    Outcome {
        attempted: entries.len(),
        failed,
        checks_ok: consistent,
        metrics,
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_texts_distinct() {
        let a: Vec<String> = {
            let mut s = Script::new(7, 0);
            (0..200).map(|_| format!("{:?}", s.next_op())).collect()
        };
        let b: Vec<String> = {
            let mut s = Script::new(7, 0);
            (0..200).map(|_| format!("{:?}", s.next_op())).collect()
        };
        assert_eq!(a, b);
        let mut texts: Vec<&String> = a.iter().filter(|t| t.starts_with("Query")).collect();
        let n = texts.len();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), n, "every query text is distinct");
        assert_eq!(a.iter().filter(|t| t.starts_with("Load")).count(), 10);
    }

    #[test]
    fn warm_requests_expect_the_versions_after_the_last_load() {
        // Run a script until a `LOAD` swaps a document that one of the
        // recent texts was sent against.
        let mut script = Script::new(11, 1);
        let mut recent: VecDeque<(usize, usize, String)> = VecDeque::new();
        let mut sent_against: VecDeque<usize> = VecDeque::new();
        loop {
            match script.next_op() {
                Op::Query {
                    shape,
                    doc,
                    version,
                    text,
                } => {
                    if recent.len() == SHAPES * WARM_TEXTS {
                        recent.pop_front();
                        sent_against.pop_front();
                    }
                    recent.push_back((shape, doc, text));
                    sent_against.push_back(version);
                }
                Op::Load { doc, .. } if recent.iter().any(|(_, d, _)| *d == doc) => break,
                Op::Load { .. } => {}
            }
        }
        let mut stale = 0;
        for (op, sent) in recent.iter().map(|r| warm_op(&script, r)).zip(sent_against) {
            let Op::Query {
                shape,
                doc,
                version,
                ..
            } = op
            else {
                panic!("warm requests are queries");
            };
            assert_eq!(version, script.version_of(doc), "shape {shape}");
            stale += usize::from(version != sent);
        }
        assert!(stale > 0, "the last load swapped a recent document");
    }

    #[test]
    fn every_shape_agrees_with_the_baseline() {
        let seed = 3;
        let xml = generate(&GeneratorConfig { scale: SCALE, seed });
        let engine = engine_with_threads(1);
        engine.load_document(&doc_name(0), &xml).unwrap();
        let mut baseline = BaselineEngine::new();
        baseline.load_document(&doc_name(0), &xml).unwrap();
        let mut rng = Rng::new(seed);
        for shape in 0..SHAPES {
            for unique in 0..3 {
                let text = shape_text(shape, &doc_name(0), &mut rng, unique);
                let got = engine.query_with(&text, Profile::None).unwrap().to_xml();
                let want = baseline.query(&text).unwrap().to_xml();
                assert_eq!(got, want, "{text}");
            }
        }
    }
}
