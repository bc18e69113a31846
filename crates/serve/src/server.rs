//! The daemon: TCP ingest sources pushing into one shared session, an HTTP
//! control/metrics surface, backpressure through the session lock and
//! graceful drain.
//!
//! # Architecture
//!
//! ```text
//! TCP conn ─┐ reader threads                                 HTTP thread
//! TCP conn ─┼─ read → decode into ─► lock, push_batch ─► Session   /metrics
//! TCP conn ─┘ (a reused batch per    (one lock hold per  │         /queries
//!              connection)            batch)             │         /stats ...
//!                                                 QueryHandles ◄──┘
//! ```
//!
//! * Each ingest connection gets a reader thread, which does the whole unit
//!   of work: whatever one socket read delivered (read straight into the
//!   decoder's buffer) is decoded in place by [`wire::Decoder`] into the
//!   connection's reused batch, and the thread then takes the session lock
//!   and pushes the batch, data and heartbeats in wire order, at most
//!   [`MAX_BATCH`] frames per lock hold. There is no flush timer, no queue
//!   and no other pushing thread. The ingest counters and the
//!   `quill.executor.queue_depth` gauge, which counts frames decoded but not
//!   yet pushed, move once per batch. Each data item's row moves into its
//!   event, so a numeric event allocates nothing.
//! * Backpressure: a reader waiting for the session lock stops reading its
//!   socket, which closes the TCP receive window. Memory stays bounded at
//!   one batch per connection; sources slow down.
//! * The **global arrival sequence** is stamped under the session lock as
//!   events are pushed: within a connection that is wire order, across
//!   connections the order in which reads took the lock. HTTP registration
//!   and `/stats` wait for at most one batch: up to 512 frames, in practice
//!   what a 4 KiB read holds (about 125 binary or 260 text events). The
//!   session's push costs about 0.13–0.2 µs an event with one query
//!   registered and 0.6 µs with a hundred (`session.push_ns_per_event` of
//!   the `quill-e2e` benchmark on a 2-CPU host), so the wait is 15–75 µs,
//!   and at most about 0.3 ms at the cap.
//! * Both listeners block in `accept`; a finish or exit request wakes its
//!   loop with a connection to the listener's own address.
//! * Graceful drain: a finish request stops the acceptor, which lets its
//!   readers push what they hold and wind down, joins them, then calls
//!   [`Session::finish`] — every open window is flushed as if a final
//!   watermark had arrived. Results stay pollable afterwards.

use crate::config::{parse_query, query_to_dsl, ServeConfig};
use crate::error::{ServeError, ServeResult};
use crate::http;
use crate::wire::{self, Item};
use parking_lot::Mutex;
use quill_core::prelude::{
    QueryConfig, QueryHandle, QueryId, QueryInfo, QuerySpec, Session, SessionStats,
};
use quill_engine::event::Event;
use quill_engine::operator::WindowResult;
use quill_engine::value::Key;
use quill_telemetry::SpanRecorder;
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Most frames a reader pushes under one hold of the session lock: the
/// longest HTTP registration and `/stats` wait behind a push.
pub const MAX_BATCH: usize = 512;

/// Connect to a listener of this process and hang up, so its blocking
/// `accept` returns and the loop re-reads its stop flag.
fn wake(listener: SocketAddr) {
    let mut addr = listener;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// State shared between every thread of one server.
pub(crate) struct Shared {
    pub(crate) registry: quill_telemetry::Registry,
    pub(crate) session: Mutex<Session>,
    pub(crate) handles: Mutex<HashMap<u64, QueryHandle>>,
    pub(crate) config: ServeConfig,
    /// The bound listener addresses, for [`wake`].
    ingest_addr: SocketAddr,
    http_addr: SocketAddr,
    /// The next arrival sequence number. Read and written only under the
    /// session lock, so sequence order is push order.
    arrivals: AtomicU64,
    /// `quill.executor.queue_depth`: frames decoded and not yet pushed.
    depth_gauge: quill_telemetry::Gauge,
    conns_gauge: quill_telemetry::Gauge,
    conns_total: quill_telemetry::Counter,
    pub(crate) ingested: quill_telemetry::Counter,
    heartbeats: quill_telemetry::Counter,
    protocol_errors: quill_telemetry::Counter,
    evicted: quill_telemetry::Counter,
    /// The session's record stream (event-time stamps): buffer residency,
    /// K changes, late arrivals and query-tagged result delivery.
    pub(crate) spans: SpanRecorder,
    active_readers: AtomicU64,
    /// Stop accepting + ask readers to wind down; the acceptor joins them
    /// and finishes the session.
    finish_requested: AtomicBool,
    /// Stop the HTTP loop and the whole server.
    exit_requested: AtomicBool,
}

impl Shared {
    pub(crate) fn finish_requested(&self) -> bool {
        self.finish_requested.load(Ordering::SeqCst)
    }

    pub(crate) fn request_finish(&self) {
        if !self.finish_requested.swap(true, Ordering::SeqCst) {
            wake(self.ingest_addr);
        }
    }

    pub(crate) fn exit_requested(&self) -> bool {
        self.exit_requested.load(Ordering::SeqCst)
    }

    pub(crate) fn request_exit(&self) {
        self.request_finish();
        if !self.exit_requested.swap(true, Ordering::SeqCst) {
            wake(self.http_addr);
        }
    }

    /// Push `batch`, emptied, into the session under one lock hold, stamping
    /// each data frame's arrival sequence; each run of data frames up to the
    /// next heartbeat is one `push_batch`. The batch leaves the depth gauge
    /// and enters the ingest counters before the lock is released, so they
    /// agree with the session's own counters for whoever takes it next.
    fn push(&self, batch: &mut Vec<Item>) {
        let frames = batch.len() as u64;
        self.depth_gauge.add(frames as f64);
        let mut session = self.session.lock();
        let mut seq = self.arrivals.load(Ordering::Relaxed);
        let mut heartbeats = 0;
        let mut items = batch.drain(..);
        loop {
            let mut heartbeat = None;
            session.push_batch(std::iter::from_fn(|| match items.next()? {
                Item::Data { ts, row } => {
                    seq += 1;
                    Some(Event::new(ts, seq - 1, row))
                }
                Item::Heartbeat { ts, source } => {
                    heartbeat = Some((source, ts));
                    None
                }
            }));
            let Some((source, ts)) = heartbeat else {
                break;
            };
            session.heartbeat(&Key(source), ts);
            heartbeats += 1;
        }
        self.arrivals.store(seq, Ordering::Relaxed);
        self.depth_gauge.add(-(frames as f64));
        self.ingested.add(frames - heartbeats);
        self.heartbeats.add(heartbeats);
    }

    /// Register a query from its DSL form; the handle is kept for HTTP
    /// result polling.
    pub(crate) fn register_dsl(&self, dsl: &str) -> ServeResult<QueryId> {
        let (spec, cfg) = parse_query(dsl)?;
        self.register_spec(&spec, cfg)
    }

    /// Register an already-parsed query.
    pub(crate) fn register_spec(&self, spec: &QuerySpec, cfg: QueryConfig) -> ServeResult<QueryId> {
        let handle = self.session.lock().register_with(spec, cfg)?;
        let id = handle.id();
        self.handles.lock().insert(id.raw(), handle);
        Ok(id)
    }

    /// Deregister; returns the final stats JSON-ready struct.
    pub(crate) fn deregister(&self, id: QueryId) -> ServeResult<quill_core::prelude::QueryStats> {
        let stats = self.session.lock().deregister(id)?;
        self.handles.lock().remove(&id.raw());
        Ok(stats)
    }

    /// Drain pending results for one query.
    ///
    /// Clones the (Arc-backed) handle out of the registry so the map guard
    /// is released before polling: `QueryHandle::poll` takes the per-query
    /// state lock, and holding the registry lock across it would stall
    /// register/deregister behind a busy query.
    pub(crate) fn poll(&self, id: QueryId) -> ServeResult<Vec<WindowResult>> {
        let handle = {
            let handles = self.handles.lock();
            handles
                .get(&id.raw())
                .cloned()
                .ok_or_else(|| ServeError::Config(format!("unknown query id {id}")))?
        };
        Ok(handle.poll())
    }

    /// Session-wide counters.
    pub(crate) fn stats(&self) -> SessionStats {
        self.session.lock().stats()
    }

    /// Describe every registered query as `(info, dsl)` pairs.
    pub(crate) fn list_queries(&self) -> Vec<(QueryInfo, String)> {
        let session = self.session.lock();
        let ids = session.query_ids();
        let infos = ids.into_iter().filter_map(|id| session.query_info(id));
        infos.map(with_dsl).collect()
    }

    /// Describe one registered query.
    pub(crate) fn query(&self, id: QueryId) -> Option<(QueryInfo, String)> {
        self.session.lock().query_info(id).map(with_dsl)
    }
}

fn with_dsl(info: QueryInfo) -> (QueryInfo, String) {
    let dsl = query_to_dsl(&info.spec, &info.config);
    (info, dsl)
}

/// A running server: join handles plus the shared state. Obtained from
/// [`Server::start`]; drives everything needed by the bins and tests
/// (in-process registration, polling, drain, shutdown).
pub struct ServerHandle {
    shared: Arc<Shared>,
    ingest_addr: SocketAddr,
    http_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    http: Option<JoinHandle<()>>,
}

/// Namespace for starting servers.
pub struct Server;

impl Server {
    /// Bind both listeners, start every thread, and return the handle.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start(config: ServeConfig) -> ServeResult<ServerHandle> {
        let registry = quill_telemetry::Registry::new();
        let spans = if config.span_capacity == 0 {
            SpanRecorder::disabled()
        } else {
            SpanRecorder::new(config.span_capacity)
        };
        spans.instrument(&registry);
        let session = Session::new(config.strategy.build())
            .with_telemetry(&registry)
            .with_spans(&spans);
        let ingest_listener = TcpListener::bind(&config.ingest_addr)?;
        let http_listener = TcpListener::bind(&config.http_addr)?;
        let ingest_addr = ingest_listener.local_addr()?;
        let http_addr = http_listener.local_addr()?;
        let shared = Arc::new(Shared {
            session: Mutex::new(session),
            handles: Mutex::new(HashMap::new()),
            spans,
            ingest_addr,
            http_addr,
            arrivals: AtomicU64::new(0),
            depth_gauge: registry.gauge("quill.executor.queue_depth"),
            conns_gauge: registry.gauge("quill.serve.connections"),
            conns_total: registry.counter("quill.serve.connections_total"),
            ingested: registry.counter("quill.serve.ingested"),
            heartbeats: registry.counter("quill.serve.heartbeats"),
            protocol_errors: registry.counter("quill.serve.protocol_errors"),
            evicted: registry.counter("quill.serve.evicted"),
            active_readers: AtomicU64::new(0),
            finish_requested: AtomicBool::new(false),
            exit_requested: AtomicBool::new(false),
            registry,
            config: config.clone(),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &ingest_listener))
        };
        let http = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || http::serve(&shared, &http_listener))
        };

        Ok(ServerHandle {
            shared,
            ingest_addr,
            http_addr,
            acceptor: Some(acceptor),
            http: Some(http),
        })
    }
}

impl ServerHandle {
    /// The bound ingest address (resolved port for `:0` binds).
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// The bound HTTP address.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// The server's telemetry registry (scraped by `/metrics`).
    pub fn registry(&self) -> &quill_telemetry::Registry {
        &self.shared.registry
    }

    /// Register a query from DSL text (same grammar as `POST /queries`).
    ///
    /// # Errors
    /// Malformed DSL and invalid specs, a completeness target outside
    /// (0, 1] included, are refused.
    pub fn register(&self, dsl: &str) -> ServeResult<QueryId> {
        self.shared.register_dsl(dsl)
    }

    /// Register an already-built query spec.
    ///
    /// # Errors
    /// Invalid specs, a completeness target outside (0, 1] included, are
    /// refused.
    pub fn register_spec(&self, spec: &QuerySpec, cfg: QueryConfig) -> ServeResult<QueryId> {
        self.shared.register_spec(spec, cfg)
    }

    /// Deregister a query, returning its final counters.
    ///
    /// # Errors
    /// Unknown ids are refused.
    pub fn deregister(&self, id: QueryId) -> ServeResult<quill_core::prelude::QueryStats> {
        self.shared.deregister(id)
    }

    /// Drain a query's pending results.
    ///
    /// # Errors
    /// Unknown ids are refused.
    pub fn poll(&self, id: QueryId) -> ServeResult<Vec<WindowResult>> {
        self.shared.poll(id)
    }

    /// Session-wide counters.
    pub fn stats(&self) -> SessionStats {
        self.shared.stats()
    }

    /// Request a graceful drain (stop ingest, flush, finish the session)
    /// without stopping the HTTP surface. Equivalent to `POST /finish`.
    pub fn request_finish(&self) {
        self.shared.request_finish();
    }

    /// `false` once a full shutdown (`POST /shutdown`) has been requested.
    pub fn running(&self) -> bool {
        !self.shared.exit_requested()
    }

    /// Drain and wait until the session has finished (the acceptor exits
    /// once its readers have pushed their last frame and the session is
    /// finished).
    pub fn finish(&mut self) {
        self.shared.request_finish();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Full shutdown: drain, stop every thread, return final session stats.
    pub fn shutdown(mut self) -> SessionStats {
        self.finish();
        self.shared.request_exit();
        if let Some(t) = self.http.take() {
            let _ = t.join();
        }
        self.shared.stats()
    }
}

/// Accept ingest connections until a finish is requested, then join the
/// readers and finish the session; the request wakes the blocking `accept`
/// with a connection of its own, which is dropped.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.finish_requested() {
        let Ok((stream, _peer)) = listener.accept() else {
            break;
        };
        if shared.finish_requested() {
            break;
        }
        // A reader that has ended is let go, so its thread's resources are
        // freed now rather than at the drain.
        readers.retain(|r| !r.is_finished());
        let shared = Arc::clone(shared);
        shared.active_readers.fetch_add(1, Ordering::SeqCst);
        shared.conns_total.inc();
        shared
            .conns_gauge
            .set_u64(shared.active_readers.load(Ordering::SeqCst));
        readers.push(std::thread::spawn(move || {
            read_connection(&shared, stream);
            let left = shared.active_readers.fetch_sub(1, Ordering::SeqCst) - 1;
            shared.conns_gauge.set_u64(left);
        }));
    }
    for r in readers {
        let _ = r.join();
    }
    shared.session.lock().finish();
}

/// Read one ingest connection until EOF, error, idle eviction or drain,
/// pushing what each read completes.
fn read_connection(shared: &Shared, mut stream: TcpStream) {
    let conn = &shared.config.conn;
    let _ = stream.set_read_timeout(Some(conn.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut decoder = wire::Decoder::new(conn.max_frame_len);
    let mut batch = Vec::new();
    let mut idle_ticks: u64 = 0;
    let max_idle = conn.idle_ticks();

    loop {
        match decoder.read_from(&mut stream) {
            Ok(0) => break, // EOF: clean close.
            Ok(_) => {
                idle_ticks = 0;
                if !hand_over(shared, &mut decoder, &mut batch) {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.finish_requested() {
                    break;
                }
                idle_ticks += 1;
                if idle_ticks >= max_idle {
                    shared.evicted.inc();
                    break;
                }
            }
            Err(_) => break,
        }
        if shared.finish_requested() && !decoder.has_partial() {
            break;
        }
    }
    decoder.close();
    hand_over(shared, &mut decoder, &mut batch);
}

/// Decode what the decoder holds into `batch` and push it into the session,
/// at most [`MAX_BATCH`] frames per lock hold. Waiting for the lock is the
/// backpressure path. Returns `false` to drop the connection on a protocol
/// error.
fn hand_over(shared: &Shared, decoder: &mut wire::Decoder, batch: &mut Vec<Item>) -> bool {
    loop {
        match decoder.decode(batch, MAX_BATCH) {
            Ok(0) => return true,
            Ok(_) => shared.push(batch),
            Err(_) => {
                shared.protocol_errors.inc();
                return false;
            }
        }
    }
}
