//! The serving front end: a non-blocking readiness loop multiplexing many
//! client connections onto one shared [`SvrEngine`].
//!
//! # Architecture
//!
//! One **event-loop thread** owns the listener and every connection. It
//! polls for readiness ([`crate::poll`]), accumulates bytes into
//! per-connection read buffers, decodes frames, and applies admission
//! control. SQL execution never runs on the event loop: requests are
//! handed to a small **worker pool** over a job queue, and completed
//! responses travel back through a completion queue plus a self-pipe wake
//! (the poll loop's only cross-thread signal).
//!
//! Per connection the server keeps an isolated [`SqlSession`] — named
//! cursors and the open transaction are connection-private, exactly like
//! a database session — and executes that connection's requests
//! **serially, in order** (responses arrive in request order). Clients
//! may pipeline: up to [`ServerConfig::pipeline_cap`] requests queue
//! behind the executing one.
//!
//! # Admission control and backpressure
//!
//! A request is **shed** with a `Busy` frame (never silently dropped)
//! when the connection's pipeline is full, when
//! [`ServerConfig::max_inflight`] requests are already queued or
//! executing across all connections, or when the connection's outgoing
//! buffer is over [`ServerConfig::write_buf_cap`] (a client that stops
//! reading cannot pin unbounded response memory). Accepts past
//! [`ServerConfig::max_connections`] are answered with `Busy` and closed.
//! `Ping` is exempt — it is answered inline by the event loop so latency
//! probes keep working under load.
//!
//! # Timer tick
//!
//! Every [`ServerConfig::tick_ms`] the loop sweeps each session's named
//! cursors against the configured idle TTL
//! ([`SqlSession::sweep_expired_cursors`]), so an abandoned cursor's
//! candidate pool is reclaimed even if its connection never speaks again.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex};
use std::time::{Duration, Instant};

use svr_engine::SvrEngine;
use svr_sql::SqlSession;

use crate::frame::{self, Frame};
use crate::json::Json;
use crate::protocol::{op, parse_request, result_to_json, Request, Response};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port `0` picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Accept ceiling: further connections get `Busy` and are closed.
    pub max_connections: usize,
    /// Global cap on requests queued or executing in the worker pool.
    pub max_inflight: usize,
    /// Per-connection cap on requests queued behind the executing one.
    pub pipeline_cap: usize,
    /// Per-connection outgoing-buffer bytes above which new requests are
    /// shed until the client drains its responses.
    pub write_buf_cap: usize,
    /// Worker threads executing SQL (`0` = available parallelism).
    pub workers: usize,
    /// Timer-tick period for cursor-TTL sweeping (`0` = 1000 ms).
    pub tick_ms: u64,
    /// Idle TTL applied to every connection's named cursors
    /// (`None` = cursors never expire).
    pub cursor_ttl: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 1024,
            max_inflight: 64,
            pipeline_cap: 32,
            write_buf_cap: 4 * 1024 * 1024,
            workers: 0,
            tick_ms: 100,
            cursor_ttl: None,
        }
    }
}

/// Monotonic serving counters (see [`ServerHandle::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Requests executed (admitted and completed).
    pub requests: u64,
    /// Requests (or connections) shed with `Busy`.
    pub shed: u64,
    /// Malformed-but-framed requests answered with an error.
    pub proto_errors: u64,
    /// Named cursors reclaimed by the TTL sweep.
    pub cursors_swept: u64,
    /// Requests queued or executing right now.
    pub inflight: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    active: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
    proto_errors: AtomicU64,
    cursors_swept: AtomicU64,
}

struct Job {
    conn: usize,
    gen: u64,
    request: Request,
    session: SqlSession,
}

/// Queues shared between the event loop and the worker pool.
struct WorkerShared {
    jobs: Mutex<VecDeque<Job>>,
    jobs_ready: Condvar,
    /// Jobs queued plus executing; admission compares this against
    /// `max_inflight` before enqueueing.
    inflight: AtomicUsize,
    completions: Mutex<Vec<(usize, u64, Vec<u8>)>>,
    shutdown: AtomicBool,
}

/// Work items in a connection's pipeline, processed strictly in order.
enum Work {
    /// Run a request in the worker pool.
    Run(Request),
    /// Emit a pre-computed response (e.g. a per-request protocol error)
    /// without occupying a worker slot.
    Respond(Response),
    /// Flush a goodbye response, then close.
    Close,
}

struct Conn {
    stream: TcpStream,
    /// Generation tag: completions carry it so a response for a closed
    /// connection can never reach the slot's next tenant.
    gen: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    session: SqlSession,
    pending: VecDeque<Work>,
    executing: bool,
    closing: bool,
}

impl Conn {
    fn buffered_out(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn queue_frame(&mut self, frame: &Frame) {
        self.write_buf.extend_from_slice(&frame.encode());
    }
}

/// The serving front end. See the [module docs](self) for the design.
pub struct Server;

/// Running server: address, live counters, shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    worker_shared: Arc<WorkerShared>,
    wake: UnixStream,
    counters: Arc<Counters>,
    event_thread: Option<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr` and start serving `engine`. Returns once the
    /// listener is live; serving continues until
    /// [`ServerHandle::shutdown`] (or drop).
    pub fn start(engine: SvrEngine, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let worker_shared = Arc::new(WorkerShared {
            jobs: Mutex::new(VecDeque::new()),
            jobs_ready: Condvar::new(),
            inflight: AtomicUsize::new(0),
            completions: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });

        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(4, usize::from)
        } else {
            config.workers
        };
        let mut worker_threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&worker_shared);
            let wake = wake_tx.try_clone()?;
            let engine = engine.clone();
            let counters = Arc::clone(&counters);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("svr-worker-{i}"))
                    .spawn(move || worker_loop(&shared, wake, &engine, &counters))?,
            );
        }

        let loop_shutdown = Arc::clone(&shutdown);
        let loop_shared = Arc::clone(&worker_shared);
        let loop_counters = Arc::clone(&counters);
        let loop_config = config.clone();
        let event_thread = std::thread::Builder::new()
            .name("svr-event-loop".to_string())
            .spawn(move || {
                event_loop(
                    listener,
                    wake_rx,
                    engine,
                    loop_config,
                    &loop_shutdown,
                    &loop_shared,
                    &loop_counters,
                );
            })?;

        Ok(ServerHandle {
            addr,
            shutdown,
            worker_shared,
            wake: wake_tx,
            counters,
            event_thread: Some(event_thread),
            worker_threads,
        })
    }
}

impl ServerHandle {
    /// The bound listen address (with the real port when `addr` used 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            active: self.counters.active.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            proto_errors: self.counters.proto_errors.load(Ordering::Relaxed),
            cursors_swept: self.counters.cursors_swept.load(Ordering::Relaxed),
            inflight: self.worker_shared.inflight.load(Ordering::Relaxed) as u64,
        }
    }

    /// Stop accepting, drop every connection, stop the workers, and join
    /// all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.worker_shared.shutdown.store(true, Ordering::SeqCst);
        self.worker_shared.jobs_ready.notify_all();
        let _ = (&self.wake).write(&[1]);
        if let Some(handle) = self.event_thread.take() {
            let _ = handle.join();
        }
        for handle in self.worker_threads.drain(..) {
            self.worker_shared.jobs_ready.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Unwrap a job- or completion-queue lock result.
#[expect(
    clippy::expect_used,
    reason = "poisoned = a peer panicked mid-update; dying is the safe response"
)]
fn unpoisoned<T>(result: LockResult<T>) -> T {
    result.expect("server queue poisoned")
}

fn worker_loop(
    shared: &WorkerShared,
    mut wake: UnixStream,
    engine: &SvrEngine,
    counters: &Counters,
) {
    loop {
        let job = {
            let mut jobs = unpoisoned(shared.jobs.lock());
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                jobs = unpoisoned(
                    shared
                        .jobs_ready
                        .wait_timeout(jobs, Duration::from_millis(50)),
                )
                .0;
            }
        };
        let response = execute_request(&job.session, engine, counters, &job.request);
        let bytes = response.encode().encode();
        unpoisoned(shared.completions.lock()).push((job.conn, job.gen, bytes));
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        counters.requests.fetch_add(1, Ordering::Relaxed);
        // A full pipe means a wake is already pending: the loop will
        // drain the completion queue either way.
        let _ = wake.write(&[1]);
    }
}

fn sql_identifier(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
}

/// Execute one admitted request against its connection's session.
fn execute_request(
    session: &SqlSession,
    engine: &SvrEngine,
    counters: &Counters,
    request: &Request,
) -> Response {
    let sql = match request {
        Request::Ping => return Response::Ok(Json::obj([("kind", Json::from("pong"))])),
        Request::Info => return Response::Ok(info_body(engine, counters)),
        Request::Query { sql } | Request::Exec { sql } => sql.clone(),
        Request::Fetch { cursor, count } => {
            if !sql_identifier(cursor) {
                return Response::error("proto", format!("invalid cursor name {cursor:?}"));
            }
            format!("FETCH {count} FROM {cursor}")
        }
        Request::Begin => "BEGIN".to_string(),
        Request::Commit => "COMMIT".to_string(),
        Request::Rollback => "ROLLBACK".to_string(),
        // Close never reaches the worker pool (the event loop retires it).
        Request::Close => return Response::Ok(Json::obj([("kind", Json::from("bye"))])),
    };
    match session.execute(&sql) {
        Ok(result) => Response::Ok(result_to_json(&result)),
        Err(e) => Response::error("sql", e.to_string()),
    }
}

/// Body of the `Info` response: serving counters plus the engine's
/// contention counters (WAL group-sync, refresh group-commit queue) and
/// cumulative block-max seek counters (long-list blocks skipped undecoded
/// vs decoded across every ranked query).
fn info_body(engine: &SvrEngine, counters: &Counters) -> Json {
    let contention = engine.contention_stats();
    let seek = engine.seek_stats();
    Json::obj([
        ("kind", Json::from("info")),
        (
            "server",
            Json::obj([
                (
                    "accepted",
                    Json::from(counters.accepted.load(Ordering::Relaxed)),
                ),
                (
                    "active",
                    Json::from(counters.active.load(Ordering::Relaxed)),
                ),
                (
                    "requests",
                    Json::from(counters.requests.load(Ordering::Relaxed)),
                ),
                ("shed", Json::from(counters.shed.load(Ordering::Relaxed))),
                (
                    "proto_errors",
                    Json::from(counters.proto_errors.load(Ordering::Relaxed)),
                ),
                (
                    "cursors_swept",
                    Json::from(counters.cursors_swept.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "wal",
            Json::obj([
                ("bytes", Json::from(contention.wal.bytes)),
                ("records", Json::from(contention.wal.records)),
                ("uncommitted", Json::from(contention.wal.uncommitted)),
                ("syncs", Json::from(contention.wal.syncs)),
                ("sync_skips", Json::from(contention.wal.sync_skips)),
            ]),
        ),
        (
            "refresh",
            Json::obj([
                ("enqueued", Json::from(contention.refresh.enqueued)),
                ("applied", Json::from(contention.refresh.applied)),
                ("drain_holds", Json::from(contention.refresh.drain_holds)),
                ("max_depth", Json::from(contention.refresh.max_depth)),
                ("depth", Json::from(contention.refresh.depth)),
            ]),
        ),
        (
            "seek",
            Json::obj([
                ("blocks_skipped", Json::from(seek.blocks_skipped)),
                ("blocks_decoded", Json::from(seek.blocks_decoded)),
            ]),
        ),
        (
            "locks",
            Json::obj(contention.locks.iter().map(|(class, stats)| {
                (
                    class.name(),
                    Json::obj([
                        ("acquisitions", Json::from(stats.acquisitions)),
                        ("contended", Json::from(stats.contended)),
                        ("wait_us", Json::from(stats.wait_nanos / 1_000)),
                        ("hold_us", Json::from(stats.hold_nanos / 1_000)),
                    ]),
                )
            })),
        ),
        ("group_refresh", Json::from(engine.group_refresh_enabled())),
    ])
}

/// Slab of connections indexed by a stable token.
struct Conns {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
}

impl Conns {
    fn new() -> Conns {
        Conns {
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
        }
    }

    fn insert(&mut self, make: impl FnOnce(u64) -> Conn) -> usize {
        self.next_gen += 1;
        let conn = make(self.next_gen);
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(conn);
                idx
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        }
    }

    fn remove(&mut self, idx: usize) {
        if self.slots[idx].take().is_some() {
            self.free.push(idx);
        }
    }

    fn active(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[allow(clippy::too_many_lines)]
fn event_loop(
    listener: TcpListener,
    wake_rx: UnixStream,
    engine: SvrEngine,
    config: ServerConfig,
    shutdown: &AtomicBool,
    shared: &Arc<WorkerShared>,
    counters: &Arc<Counters>,
) {
    let tick = Duration::from_millis(if config.tick_ms == 0 {
        1000
    } else {
        config.tick_ms
    });
    let mut conns = Conns::new();
    let mut last_tick = Instant::now();
    // Token map rebuilt each iteration alongside the pollfd slice.
    enum Token {
        Wake,
        Listener,
        Conn(usize),
    }

    while !shutdown.load(Ordering::SeqCst) {
        let mut fds = Vec::with_capacity(2 + conns.active());
        let mut tokens = Vec::with_capacity(fds.capacity());
        fds.push(crate::poll::PollFd::new(
            wake_rx.as_raw_fd(),
            crate::poll::READABLE,
        ));
        tokens.push(Token::Wake);
        fds.push(crate::poll::PollFd::new(
            listener.as_raw_fd(),
            crate::poll::READABLE,
        ));
        tokens.push(Token::Listener);
        for (idx, slot) in conns.slots.iter().enumerate() {
            if let Some(conn) = slot {
                let mut events = 0;
                if !conn.closing {
                    events |= crate::poll::READABLE;
                }
                if conn.buffered_out() > 0 {
                    events |= crate::poll::WRITABLE;
                }
                if events != 0 {
                    fds.push(crate::poll::PollFd::new(conn.stream.as_raw_fd(), events));
                    tokens.push(Token::Conn(idx));
                }
            }
        }

        let timeout = tick
            .saturating_sub(last_tick.elapsed())
            .as_millis()
            .min(i32::MAX as u128) as i32;
        if crate::poll::wait(&mut fds, timeout.max(1)).is_err() {
            break;
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }

        let mut to_close: Vec<usize> = Vec::new();
        for (fd, token) in fds.iter().zip(&tokens) {
            match token {
                Token::Wake => {
                    if fd.readable() {
                        drain_wake(&wake_rx);
                    }
                }
                Token::Listener => {
                    if fd.readable() {
                        accept_ready(&listener, &engine, &config, &mut conns, counters);
                    }
                }
                Token::Conn(idx) => {
                    let Some(conn) = conns.slots[*idx].as_mut() else {
                        continue;
                    };
                    let mut dead = false;
                    if fd.readable() {
                        dead = read_ready(conn, &config, shared, counters);
                    }
                    if !dead && fd.writable() {
                        dead = flush(conn);
                    }
                    if dead {
                        to_close.push(*idx);
                    }
                }
            }
        }

        // Completions (and freed global slots) may unblock any pipeline.
        let completions: Vec<(usize, u64, Vec<u8>)> = {
            let mut queue = unpoisoned(shared.completions.lock());
            std::mem::take(&mut *queue)
        };
        for (idx, gen, bytes) in completions {
            if let Some(conn) = conns.slots.get_mut(idx).and_then(Option::as_mut) {
                if conn.gen == gen {
                    conn.executing = false;
                    conn.write_buf.extend_from_slice(&bytes);
                }
            }
        }
        for idx in 0..conns.slots.len() {
            if let Some(conn) = conns.slots[idx].as_mut() {
                pump(conn, idx, &config, shared);
                if flush(conn) {
                    to_close.push(idx);
                }
            }
        }

        if last_tick.elapsed() >= tick {
            last_tick = Instant::now();
            if config.cursor_ttl.is_some() {
                for conn in conns.slots.iter().flatten() {
                    let swept = conn.session.sweep_expired_cursors();
                    counters
                        .cursors_swept
                        .fetch_add(swept as u64, Ordering::Relaxed);
                }
            }
        }

        for idx in to_close {
            conns.remove(idx);
        }
        counters
            .active
            .store(conns.active() as u64, Ordering::Relaxed);
    }
}

fn drain_wake(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    while matches!((&*wake_rx).read(&mut sink), Ok(n) if n > 0) {}
}

fn accept_ready(
    listener: &TcpListener,
    engine: &SvrEngine,
    config: &ServerConfig,
    conns: &mut Conns,
    counters: &Counters,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.active() >= config.max_connections {
                    counters.shed.fetch_add(1, Ordering::Relaxed);
                    let busy = Response::Busy {
                        message: "connection limit reached".to_string(),
                    };
                    let _ = (&stream).write(&busy.encode().encode());
                    continue; // drop: the accept queue may hide more
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let session = SqlSession::with_engine(engine.clone());
                session.set_cursor_ttl(config.cursor_ttl);
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                conns.insert(|gen| Conn {
                    stream,
                    gen,
                    read_buf: Vec::new(),
                    write_buf: Vec::new(),
                    write_pos: 0,
                    session,
                    pending: VecDeque::new(),
                    executing: false,
                    closing: false,
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Pull bytes, decode frames, admit requests. Returns true when the
/// connection died (EOF, I/O error, or framing violation with nothing
/// left to flush).
fn read_ready(
    conn: &mut Conn,
    config: &ServerConfig,
    shared: &WorkerShared,
    counters: &Counters,
) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return true,
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }

    let mut consumed = 0usize;
    loop {
        match frame::decode(&conn.read_buf[consumed..]) {
            Ok(None) => break,
            Ok(Some((frame, used))) => {
                consumed += used;
                admit(conn, &frame, config, shared, counters);
                if conn.closing {
                    break;
                }
            }
            Err(e) => {
                // Framing is broken: no way to find the next frame
                // boundary. Flush an error and hang up.
                counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                conn.queue_frame(&Response::error("frame", e.to_string()).encode());
                conn.closing = true;
                conn.pending.clear();
                break;
            }
        }
    }
    conn.read_buf.drain(..consumed);
    false
}

/// Admission control for one decoded frame.
fn admit(
    conn: &mut Conn,
    frame: &Frame,
    config: &ServerConfig,
    shared: &WorkerShared,
    counters: &Counters,
) {
    // Liveness probes bypass the pipeline: answered inline, never shed.
    if frame.opcode == op::PING {
        conn.queue_frame(&Response::Ok(Json::obj([("kind", Json::from("pong"))])).encode());
        return;
    }
    let request = match parse_request(frame) {
        Ok(request) => request,
        Err(e) => {
            // The frame boundary is intact: answer in order, keep going.
            counters.proto_errors.fetch_add(1, Ordering::Relaxed);
            conn.pending
                .push_back(Work::Respond(Response::error("proto", e.to_string())));
            return;
        }
    };
    if matches!(request, Request::Close) {
        conn.pending.push_back(Work::Close);
        return;
    }
    if conn.pending.len() >= config.pipeline_cap {
        counters.shed.fetch_add(1, Ordering::Relaxed);
        conn.queue_frame(
            &Response::Busy {
                message: format!("pipeline full ({} queued)", conn.pending.len()),
            }
            .encode(),
        );
        return;
    }
    if conn.buffered_out() > config.write_buf_cap {
        counters.shed.fetch_add(1, Ordering::Relaxed);
        conn.queue_frame(
            &Response::Busy {
                message: "outgoing buffer full; drain responses first".to_string(),
            }
            .encode(),
        );
        return;
    }
    if shared.inflight.load(Ordering::SeqCst) >= config.max_inflight
        && matches!(request, Request::Query { .. } | Request::Exec { .. })
        && conn.pending.len() >= config.pipeline_cap / 2
    {
        // Overload shed: the global pool is saturated AND this connection
        // already has a deep backlog. Cheap session-state requests
        // (Begin/Commit/Fetch/Info) still queue.
        counters.shed.fetch_add(1, Ordering::Relaxed);
        conn.queue_frame(
            &Response::Busy {
                message: "server at capacity".to_string(),
            }
            .encode(),
        );
        return;
    }
    conn.pending.push_back(Work::Run(request));
}

/// Advance a connection's pipeline: emit ready responses, dispatch the
/// next request when a worker slot is free.
fn pump(conn: &mut Conn, idx: usize, config: &ServerConfig, shared: &WorkerShared) {
    while !conn.executing && !conn.closing {
        match conn.pending.front() {
            None => break,
            Some(Work::Respond(_)) => {
                let Some(Work::Respond(response)) = conn.pending.pop_front() else {
                    unreachable!()
                };
                conn.queue_frame(&response.encode());
            }
            Some(Work::Close) => {
                conn.pending.clear();
                conn.queue_frame(&Response::Ok(Json::obj([("kind", Json::from("bye"))])).encode());
                conn.closing = true;
            }
            Some(Work::Run(_)) => {
                // Reserve a global slot; leave queued when the pool is full
                // (a completion will pump again).
                let mut inflight = shared.inflight.load(Ordering::SeqCst);
                loop {
                    if inflight >= config.max_inflight {
                        return;
                    }
                    match shared.inflight.compare_exchange(
                        inflight,
                        inflight + 1,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => break,
                        Err(now) => inflight = now,
                    }
                }
                let Some(Work::Run(request)) = conn.pending.pop_front() else {
                    unreachable!()
                };
                conn.executing = true;
                unpoisoned(shared.jobs.lock()).push_back(Job {
                    conn: idx,
                    gen: conn.gen,
                    request,
                    session: conn.session.clone(),
                });
                shared.jobs_ready.notify_one();
            }
        }
    }
}

/// Write as much buffered output as the socket accepts. Returns true when
/// the connection should be dropped.
fn flush(conn: &mut Conn) -> bool {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return true,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    if conn.write_pos == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
        if conn.closing {
            return true;
        }
    } else if conn.write_pos > 64 * 1024 {
        conn.write_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
    false
}
