//! The five workloads and the end-to-end (untraced) run of each.
//!
//! Every workload is a closed loop: a client issues its next statement only
//! after the previous one was answered. Each one is dominated by the
//! operation its name says, and additionally performs the other operation
//! types in a short phase of its own, so that every end-to-end metric
//! exists on every workload *under that workload's configuration* (a
//! ranked query on `score_update` is a query over a heavily updated Chunk
//! index; a reopen on `multiterm_cold` reopens a bit-packed term-score
//! index). Throughput is operations over the time their own phase ran, net
//! of the benchmark's oracle checks.

use std::path::Path;
use std::time::{Duration, Instant};

use svr_server::{Client, Server, ServerConfig};

use crate::corpus::{
    query_stream, sub_seed, Corpus, QueryKind, QueryOp, Shape, SplitMix, StreamHash, UpdateOp,
    UpdateStream,
};
use crate::host;
use crate::oracle::{Oracle, Ranking};
use crate::system::{Probes, Spec, System, Window, INDEX};
use crate::trace::Trace;

/// Distinct ranked statements per run, cycled.
const QUERY_POOL: usize = 2_048;
/// Warm-up queries at the end of set-up.
const WARMUP_QUERIES: usize = 64;
/// Single-client queries between two bit-for-bit oracle comparisons.
const CHECK_EVERY: u64 = 100;
/// Quiesced oracle pass at the end of every workload.
const FINAL_CHECKS: usize = 50;
/// Acknowledged updates before each crash: of `crash_reopen`'s cycles, and
/// of the cycles every other workload ends with.
const WRITES_PER_CRASH: usize = 150;
const TRAILING_WRITES: usize = 40;
/// Documents inserted (with their score rows) before each crash.
const INSERTS_PER_CRASH: usize = 4;
/// One block of an interleaved window: a second (an eighth of a window
/// shorter than eight), or this many operations under `--ops`.
const BLOCK_SECONDS: f64 = 1.0;
const BLOCK_OPS: u64 = 1_000;
/// Rankings compared with the oracle after each reopen.
const RANKINGS_PER_REOPEN: usize = 40;

/// The Chunk configuration four of the workloads share; each names what it
/// changes.
const CHUNK: Spec = Spec {
    name: "",
    window: Window::ReadsOverDebt,
    shape: Shape {
        num_docs: 6_000,
        vocab_size: 2_000,
        tokens_per_doc: 50,
        term_zipf: 1.0,
    },
    queries: QueryKind::Pair,
    method: "CHUNK",
    index_options: "codec = legacy, shards = 1, long_cache_pages = 4096",
    term_weight: 0.0,
    wal_sync_interval_ms: 0,
    group_refresh: false,
    clients: 1,
};

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "ranked_read",
        window: Window::ReadsOverDebt,
        wal_sync_interval_ms: 10,
        ..CHUNK
    },
    Spec {
        name: "multiterm_cold",
        window: Window::ColdReads,
        shape: Shape {
            num_docs: 10_000,
            vocab_size: 2_000,
            tokens_per_doc: 40,
            term_zipf: 1.0,
        },
        queries: QueryKind::MultiTerm,
        method: "ID_TERMSCORE",
        index_options: "codec = bitpacked, shards = 1, long_cache_pages = 32",
        term_weight: 50_000.0,
        wal_sync_interval_ms: 10,
        ..CHUNK
    },
    Spec {
        name: "score_update",
        window: Window::Writes,
        ..CHUNK
    },
    Spec {
        name: "serving_mixed",
        window: Window::Serving,
        index_options: "codec = legacy, shards = 4, long_cache_pages = 4096",
        wal_sync_interval_ms: 10,
        group_refresh: true,
        clients: 2,
        ..CHUNK
    },
    Spec {
        name: "crash_reopen",
        window: Window::CrashCycles,
        ..CHUNK
    },
];

pub fn spec_named(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// How long a phase runs: until a deadline, or for a fixed operation count
/// (`--ops`, which makes the program's counters repeat exactly).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    deadline: Option<Instant>,
    ops: u64,
}

impl Budget {
    pub fn seconds(s: f64) -> Budget {
        Budget {
            deadline: Some(Instant::now() + Duration::from_secs_f64(s.max(0.0))),
            ops: u64::MAX,
        }
    }

    pub fn ops(n: u64) -> Budget {
        Budget {
            deadline: None,
            ops: n,
        }
    }

    pub fn done(&self, completed: u64) -> bool {
        completed >= self.ops || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Fixed operation count replacing the time window.
    pub ops: Option<u64>,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Divide every corpus by this (smoke runs and the package's tests).
    pub shrink: usize,
    /// Also load the unindexed twin table the ladder's relational rung
    /// updates (traced runs only).
    pub plain_twin: bool,
    /// Crash → reopen cycles after the window of the workloads whose
    /// window is not itself made of them.
    pub trailing_reopens: usize,
}

impl RunConfig {
    /// A share of the window as a phase budget.
    pub fn budget(&self, share: f64) -> Budget {
        match self.ops {
            Some(n) => Budget::ops(((n as f64 * share) as u64).max(1)),
            None => Budget::seconds(self.seconds * share),
        }
    }

    /// A share of one block of an interleaved window.
    pub fn block(&self, share: f64) -> Budget {
        match self.ops {
            Some(_) => Budget::ops(((BLOCK_OPS as f64 * share) as u64).max(1)),
            None => Budget::seconds(BLOCK_SECONDS.min(self.seconds / 8.0) * share),
        }
    }

    pub fn shape(&self, spec: &Spec) -> Shape {
        Shape {
            num_docs: (spec.shape.num_docs / self.shrink).max(200),
            ..spec.shape
        }
    }
}

/// Everything an end-to-end run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the operator.
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub reopen_ms: Vec<f64>,
    pub merge_ms: Vec<f64>,
    /// Seconds the query (update) phases ran, net of oracle checks.
    pub query_phase_s: f64,
    pub update_phase_s: f64,
    pub index_bytes_per_posting: f64,
    pub long_pages: u64,
    pub pool_pages: u64,
    pub stream_hash: StreamHash,
    /// `ServerHandle::stats` at the end of the serving window.
    pub server_requests: u64,
    pub server_shed: u64,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn note(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }
}

/// One run's state: the system, the oracle that mirrors every acknowledged
/// write, and the statement streams.
pub struct Run {
    pub spec: Spec,
    /// `None` only while a phase owns the system (crash, server).
    pub sys: Option<System>,
    pub oracle: Oracle,
    pub corpus: Corpus,
    pub queries: Vec<QueryOp>,
    next_query: usize,
    /// One stream per client; single-client workloads use the first.
    pub updates: Vec<UpdateStream>,
    rng: SplitMix,
    pub out: Outcome,
    /// Spans of the traced pass (`--trace 1`); `None` on the end-to-end run.
    pub trace: Option<Trace>,
    /// Counter bookkeeping of the traced pass.
    pub probes: Option<Probes>,
    op_id: u64,
    /// Updates since the last `run_maintenance` (`score_update`).
    since_merge: u64,
}

impl Run {
    /// Set up `cfg.setups` times (corpus generation + load + index build +
    /// warm-up each time) and keep the last system.
    pub fn set_up(spec: Spec, cfg: &RunConfig, dir: &Path) -> Result<Run, String> {
        let mut setup_s = Vec::new();
        let mut last = None;
        let scratch = dir.parent().unwrap_or(dir);
        for _ in 0..cfg.setups.max(1) {
            drop(last.take());
            host::wait_for_quiet_disk(scratch);
            let start = Instant::now();
            let corpus = Corpus::generate(cfg.shape(&spec), cfg.seed);
            let queries = query_stream(&corpus, spec.queries, QUERY_POOL, cfg.seed);
            let sys = System::build(&spec, &corpus, dir, cfg.plain_twin)?;
            for q in &queries[..WARMUP_QUERIES] {
                sys.ranked(q)?;
            }
            setup_s.push(start.elapsed().as_secs_f64());
            last = Some((corpus, queries, sys));
        }
        let (corpus, queries, sys) = last.expect("at least one set-up ran");
        let waited = host::wait_for_quiet_disk(scratch);
        if waited > 1.0 {
            println!("waited {waited:.1} s for the block device to stop stalling");
        }
        let updates = (0..spec.clients)
            .map(|c| UpdateStream::new(&corpus, c, spec.clients, cfg.seed))
            .collect();
        let mut out = Outcome {
            setup_s,
            ..Outcome::default()
        };
        for (id, terms) in corpus.docs.iter().enumerate() {
            out.stream_hash
                .feed(&Corpus::insert_doc_sql(id as u32, terms));
        }
        for q in &queries {
            out.stream_hash.feed(&q.sql);
        }
        (out.long_pages, out.pool_pages) = sys.long_pages_vs_pool();
        Ok(Run {
            oracle: Oracle::new(&corpus, spec.term_weight),
            spec,
            sys: Some(sys),
            corpus,
            queries,
            next_query: WARMUP_QUERIES,
            updates,
            rng: SplitMix(sub_seed(cfg.seed, 5)),
            out,
            trace: None,
            probes: None,
            op_id: 0,
            since_merge: 0,
        })
    }

    pub fn sys(&self) -> &System {
        self.sys.as_ref().expect("no phase owns the system")
    }

    fn span(&mut self, name: &str, start: Instant, end: Instant) {
        if let Some(trace) = &mut self.trace {
            trace.record(name, None, self.op_id, start, end);
            self.op_id += 1;
        }
    }

    pub fn take_query(&mut self) -> QueryOp {
        let q = self.queries[self.next_query % self.queries.len()].clone();
        self.next_query += 1;
        q
    }

    /// One timed ranked query; `check` compares it with the oracle.
    /// Returns the time the check took.
    fn query_once(&mut self, check: bool) -> Duration {
        let q = self.take_query();
        let start = Instant::now();
        let got = self.sys().ranked(&q);
        let end = Instant::now();
        self.span("query", start, end);
        self.out.query_ms.push((end - start).as_secs_f64() * 1e3);
        self.out.attempted += 1;
        match got {
            Err(e) => self.out.fail(format!("query: {e}")),
            Ok(got) if check => {
                if !self.oracle.matches(&q, &got) {
                    self.out
                        .fail(format!("oracle mismatch on {:?}: got {got:?}", q.sql));
                }
                return end.elapsed();
            }
            Ok(_) => {}
        }
        Duration::ZERO
    }

    pub fn query_phase(&mut self, budget: Budget) {
        let start = Instant::now();
        let mut checking = Duration::ZERO;
        let mut n = 0;
        while !budget.done(n) {
            checking += self.query_once(n % CHECK_EVERY == CHECK_EVERY - 1);
            n += 1;
        }
        self.out.query_phase_s += (start.elapsed() - checking).as_secs_f64();
    }

    /// One timed `UPDATE stats ...`, mirrored into the oracle once
    /// acknowledged.
    fn update_once(&mut self) {
        let op = self.updates[0].next_op();
        let sql = op.sql();
        self.out.stream_hash.feed(&sql);
        let start = Instant::now();
        let result = self.sys().session.execute(&sql);
        let end = Instant::now();
        if let Some(probes) = &mut self.probes {
            probes.poll_wal();
        }
        self.span("update", start, end);
        self.out.update_ms.push((end - start).as_secs_f64() * 1e3);
        self.out.attempted += 1;
        match result {
            Ok(svr_sql::SqlResult::Updated(1)) => self.oracle.apply(&op),
            other => self.out.fail(format!("update {sql}: {other:?}")),
        }
    }

    /// Timed updates; with `merge`, a timed `run_maintenance` after every
    /// `MERGE_EVERY`-th update of the run (inside the window: background
    /// work is part of what `updates_per_s` pays).
    pub fn update_phase(&mut self, budget: Budget, merge: bool) {
        let start = Instant::now();
        let mut n = 0;
        while !budget.done(n) {
            self.update_once();
            n += 1;
            self.since_merge += 1;
            if merge && self.since_merge >= MERGE_EVERY {
                self.since_merge = 0;
                let merge = Instant::now();
                let result = self.sys().engine.run_maintenance(INDEX);
                let merged = Instant::now();
                self.span("merge", merge, merged);
                self.out.merge_ms.push((merged - merge).as_secs_f64() * 1e3);
                self.out
                    .note("run_maintenance", result.map_err(|e| e.to_string()));
            }
        }
        self.out.update_phase_s += start.elapsed().as_secs_f64();
    }

    /// The window as alternating blocks — `main_share` of each block in
    /// `main`, the rest in `side` — so that both operation types sample the
    /// whole window instead of one short stretch of it (this host's memory
    /// speed shifts by 10-20 % for seconds at a time).
    fn interleave(
        &mut self,
        cfg: &RunConfig,
        main_share: f64,
        main: impl Fn(&mut Run, Budget),
        side: impl Fn(&mut Run, Budget),
    ) {
        let window = cfg.budget(1.0);
        let mut ops = 0;
        while !window.done(ops) {
            main(self, cfg.block(main_share));
            side(self, cfg.block(1.0 - main_share));
            ops += BLOCK_OPS;
        }
    }

    /// Insert one new document (text of an existing one, fresh id) and its
    /// score row as one transaction.
    fn insert_once(&mut self) {
        let id = self.oracle.num_docs() as u32;
        let terms = self.corpus.docs[self.rng.below(self.corpus.docs.len())].clone();
        let score = self.rng.below(100_000) as i64;
        let session = &self.sys().session;
        let statements = [
            "BEGIN".to_string(),
            Corpus::insert_doc_sql(id, &terms),
            Corpus::insert_stats_sql(id, score),
            "COMMIT".to_string(),
        ];
        let result = statements
            .iter()
            .try_for_each(|s| session.execute(s).map(|_| ()))
            .map_err(|e| e.to_string());
        if result.is_ok() {
            self.oracle.insert(terms, score);
        }
        self.out.note("insert", result);
    }

    /// Acknowledged writes → crash → timed reopen to the first correct
    /// ranked answer → every acknowledged score readable → rankings equal
    /// to the oracle.
    pub fn crash_cycle(&mut self, writes: usize) {
        let write_start = Instant::now();
        for _ in 0..writes {
            self.update_once();
        }
        self.out.update_phase_s += write_start.elapsed().as_secs_f64();
        for _ in 0..INSERTS_PER_CRASH {
            self.insert_once();
        }
        let first = self.take_query();
        let sys = self.sys.take().expect("no phase owns the system");
        if let Some(probes) = &mut self.probes {
            probes.fold(&sys);
        }
        self.out.attempted += 1;
        match sys.crash_and_reopen(&self.spec, &first) {
            Err(e) => {
                // Nothing left to drive: the caller's later phases find no
                // system and the run ends failed.
                self.out.fail(format!("reopen: {e}"));
                return;
            }
            Ok((sys, ms, answer)) => {
                let end = Instant::now();
                self.span("reopen", end - Duration::from_secs_f64(ms / 1e3), end);
                if let Some(probes) = &mut self.probes {
                    probes.rebase(&sys);
                }
                self.sys = Some(sys);
                self.out.reopen_ms.push(ms);
                if !self.oracle.matches(&first, &answer) {
                    self.out
                        .fail(format!("first answer after reopen wrong: {:?}", first.sql));
                }
            }
        }
        self.out.attempted += 1;
        let lost = (0..self.oracle.num_docs() as u32)
            .filter(|&d| {
                self.sys().engine.score_of(INDEX, i64::from(d)).ok()
                    != Some(self.oracle.score(d) as f64)
            })
            .count();
        if lost > 0 {
            self.out.failed += lost as u64 - 1;
            self.out
                .fail(format!("{lost} acknowledged writes lost across a crash"));
        }
        let verify = Instant::now();
        for _ in 0..RANKINGS_PER_REOPEN {
            self.query_once(true);
        }
        self.out.query_phase_s += verify.elapsed().as_secs_f64();
    }

    /// Two-connection closed loop against `Server::start`: 4 updates to 1
    /// ranked query per client, `warmup` then the measured window. Answers
    /// are checked for the invariants that hold under concurrent writes.
    pub fn serving_phase(&mut self, warmup: Budget, window: impl Fn() -> Budget + Sync) {
        let sys = self.sys.take().expect("no phase owns the system");
        self.out.attempted += 1;
        let mut handle = match Server::start(sys.engine.clone(), ServerConfig::default()) {
            Ok(h) => h,
            Err(e) => {
                self.out.fail(format!("server start: {e}"));
                self.sys = Some(sys);
                return;
            }
        };
        let addr = handle.addr();
        let (oracle, queries, traced) = (&self.oracle, &self.queries, self.trace.is_some());
        let clients = self.updates.len();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .updates
                .iter_mut()
                .enumerate()
                .map(|(c, updates)| {
                    let window = &window;
                    scope.spawn(move || {
                        let mut log = ClientLog::default();
                        let client = match Client::connect(addr) {
                            Ok(c) => c,
                            Err(e) => {
                                log.failures.push(format!("connect: {e}"));
                                return log;
                            }
                        };
                        let mut serving = ServingClient {
                            client,
                            statement: 0,
                            next_query: c * queries.len() / clients,
                            updates,
                            oracle,
                            queries,
                            log,
                            traced,
                        };
                        serving.run(warmup, false);
                        let start = Instant::now();
                        serving.run(window(), true);
                        serving.log.window_s = start.elapsed().as_secs_f64();
                        let _ = serving.client.close();
                        serving.log
                    })
                })
                .collect();
            // The clients own the statement loop, so the log meter is
            // polled from here while they run.
            while let Some(probes) = &mut self.probes {
                if workers.iter().all(|w| w.is_finished()) {
                    break;
                }
                probes.poll_wal();
                std::thread::sleep(Duration::from_millis(1));
            }
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let stats = handle.stats();
        (self.out.server_requests, self.out.server_shed) = (stats.requests, stats.shed);
        handle.shutdown();
        drop(handle);
        let mut window_s: f64 = 0.0;
        for log in logs {
            window_s = window_s.max(log.window_s);
            self.out.attempted += log.attempted;
            for f in log.failures {
                self.out.fail(f);
            }
            self.out.query_ms.extend(log.query_ms);
            self.out.update_ms.extend(log.update_ms);
            for op in &log.acknowledged {
                self.oracle.apply(op);
            }
            if let Some(trace) = &mut self.trace {
                for (name, start, end) in log.spans {
                    trace.record(name, None, self.op_id, start, end);
                    self.op_id += 1;
                }
            }
        }
        // Both clients share the window: per-second rates are over it.
        self.out.query_phase_s += window_s;
        self.out.update_phase_s += window_s;
        self.sys = Some(sys);
    }

    /// The quiesced pass: nothing else runs, answers must equal the oracle
    /// bit for bit.
    pub fn final_checks(&mut self) {
        for _ in 0..FINAL_CHECKS {
            let q = self.take_query();
            self.out.attempted += 1;
            match self.sys().ranked(&q) {
                Err(e) => self.out.fail(format!("final check: {e}")),
                Ok(got) if !self.oracle.matches(&q, &got) => self
                    .out
                    .fail(format!("final oracle mismatch on {:?}: got {got:?}", q.sql)),
                Ok(_) => {}
            }
        }
    }

    /// The workload's measured window.
    pub fn window(&mut self, cfg: &RunConfig) {
        match self.spec.window {
            Window::ReadsOverDebt => {
                // Half the corpus in unmerged score updates first, so every
                // query runs the real short ∪ long merge; a trickle of
                // updates keeps arriving between the reads.
                let debt = self.oracle.num_docs() as u64 / 2;
                self.update_phase(Budget::ops(debt), false);
                self.interleave(
                    cfg,
                    0.95,
                    |run, b| run.query_phase(b),
                    |run, b| run.update_phase(b, false),
                );
            }
            // The term-score ID method keeps scores out of its lists, so
            // the updates between the reads leave them freshly merged.
            Window::ColdReads => self.interleave(
                cfg,
                0.9,
                |run, b| run.query_phase(b),
                |run, b| run.update_phase(b, false),
            ),
            Window::Writes => self.interleave(
                cfg,
                0.85,
                |run, b| run.update_phase(b, true),
                |run, b| run.query_phase(b),
            ),
            Window::Serving => {
                let (warmup, cfg) = (cfg.budget(0.1), cfg.clone());
                // Per client: half the fixed operation count, or the
                // whole window.
                self.serving_phase(warmup, move || match cfg.ops {
                    Some(n) => Budget::ops(n / 2),
                    None => cfg.budget(1.0),
                });
            }
            Window::CrashCycles => {
                let budget = match cfg.ops {
                    Some(n) => Budget::ops((n / WRITES_PER_CRASH as u64).max(1)),
                    None => Budget::seconds(cfg.seconds),
                };
                let mut cycles = 0;
                while !budget.done(cycles) && self.sys.is_some() {
                    self.crash_cycle(WRITES_PER_CRASH);
                    cycles += 1;
                }
            }
        }
    }

    /// Window, then the phases every workload ends with.
    pub fn run(&mut self, cfg: &RunConfig) {
        self.window(cfg);
        if self.spec.window != Window::CrashCycles {
            for _ in 0..cfg.trailing_reopens {
                if self.sys.is_some() {
                    self.crash_cycle(TRAILING_WRITES);
                }
            }
        }
        if self.sys.is_some() {
            self.final_checks();
            self.out.index_bytes_per_posting = self.sys().index_bytes_per_posting();
        }
    }
}

/// `run_maintenance` period of `score_update`, in updates.
const MERGE_EVERY: u64 = 800;

#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failures: Vec<String>,
    query_ms: Vec<f64>,
    update_ms: Vec<f64>,
    acknowledged: Vec<UpdateOp>,
    spans: Vec<(&'static str, Instant, Instant)>,
    window_s: f64,
}

fn wire_ranking(set: &svr_server::ResultSet) -> Ranking {
    set.rows
        .iter()
        .zip(&set.scores)
        .map(|(row, &score)| {
            let id = row
                .first()
                .and_then(|j| j.as_f64())
                .map_or(-1, |n| n as i64);
            (id, score)
        })
        .collect()
}

/// One serving client: its connection, its share of the documents to
/// update, and where it is in the 4 updates : 1 ranked query mix.
struct ServingClient<'a> {
    client: Client,
    /// Statements issued so far; every fifth is a ranked query.
    statement: u64,
    next_query: usize,
    updates: &'a mut UpdateStream,
    oracle: &'a Oracle,
    queries: &'a [QueryOp],
    log: ClientLog,
    traced: bool,
}

impl ServingClient<'_> {
    fn run(&mut self, budget: Budget, measured: bool) {
        let mut n = 0;
        while !budget.done(n) {
            let is_query = self.statement % 5 == 4;
            self.statement += 1;
            n += 1;
            self.log.attempted += 1;
            if is_query {
                let q = &self.queries[self.next_query % self.queries.len()];
                self.next_query += 1;
                let start = Instant::now();
                let result = self.client.query(&q.sql);
                let end = Instant::now();
                match result {
                    Ok(set) => {
                        if measured {
                            self.log.query_ms.push((end - start).as_secs_f64() * 1e3);
                        }
                        if measured && self.traced {
                            self.log.spans.push(("query", start, end));
                        }
                        if !self.oracle.invariants_hold(q, &wire_ranking(&set)) {
                            self.log
                                .failures
                                .push(format!("invariant broken on {:?}", q.sql));
                        }
                    }
                    // A `Busy` shed lands here too: a refused request
                    // counts as failed.
                    Err(e) => self.log.failures.push(format!("query: {e}")),
                }
            } else {
                let op = self.updates.next_op();
                let sql = op.sql();
                let start = Instant::now();
                let result = self.client.exec(&sql);
                let end = Instant::now();
                match result {
                    Ok(_) => {
                        if measured {
                            self.log.update_ms.push((end - start).as_secs_f64() * 1e3);
                        }
                        if measured && self.traced {
                            self.log.spans.push(("update", start, end));
                        }
                        self.log.acknowledged.push(op);
                    }
                    Err(e) => self.log.failures.push(format!("update: {e}")),
                }
            }
        }
    }
}
