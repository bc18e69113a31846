//! The daemon: TCP ingest sources feeding one shared session, an HTTP
//! control/metrics surface, bounded queues with backpressure and graceful
//! drain.
//!
//! # Architecture
//!
//! ```text
//! TCP conn ─┐ reader threads           core thread             HTTP thread
//! TCP conn ─┼─ read → decode ─► queue of batches ─► Session    /metrics
//! TCP conn ─┘ (one batch per    (bounded in        (one lock   /queries
//!              socket read)      events)            per batch) /stats ...
//!                                                      │
//!                                                QueryHandles ◄──┘
//! ```
//!
//! * Each ingest connection gets a reader thread. Whatever one socket read
//!   delivered (read straight into the decoder's buffer) is decoded in place
//!   by [`wire::Decoder`] and handed to the core as **one batch**, data and
//!   heartbeats in wire order, as soon as it is decoded — there is no flush
//!   timer. The queue depth gauge and the ingest counters move once per
//!   batch. A batch is one heap block: each data item carries its event's
//!   row, whose values (two numeric fields, say) sit inside it, and the
//!   core moves that row into the event. So a numeric event allocates
//!   nothing on the reader and frees nothing on the core.
//! * `queue_capacity` bounds the queued *events*: a batch holds at most
//!   [`batch_shape`]'s cap and the channel that many batches, and their
//!   product never exceeds the configured bound. Readers block when the
//!   queue is full, which stalls the TCP receive window: memory stays
//!   bounded, sources slow down.
//! * One core thread owns the [`Session`] and is the only event pusher. It
//!   takes the session lock once per batch and stamps the **global arrival
//!   sequence** as it pushes: within a connection that is wire order,
//!   across connections the order batches were handed over. HTTP
//!   registration and `/stats` wait for at most one batch: up to 512
//!   frames, in practice what a 4 KiB read holds (about 125 binary or 260
//!   text events). The served path costs 0.4–0.8 µs an event with one
//!   query registered and 1.2–1.5 µs with a hundred (the `quill-e2e`
//!   benchmark's `server.saturate_ns_per_event`, decode and delivery
//!   included, on a 2-CPU host), of which the session's push is about
//!   0.2–0.4 µs and 0.6 µs (`session.push_ns_per_event`). So the wait is
//!   0.05–0.2 ms, and at most about 0.8 ms at the cap.
//! * Both listeners block in `accept`; a finish or exit request wakes its
//!   loop with a connection to the listener's own address.
//! * Graceful drain: a finish request stops the acceptor, lets readers
//!   wind down, drains the queue to the last staged element, then calls
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
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The unit of ingest work: the frames one socket read delivered, in wire
/// order, each data frame's values already in its event's row. One heap
/// block per batch crosses from the reader thread to the core.
type Batch = Vec<Item>;

/// Largest batch one hand-off may carry, whatever `queue_capacity` says: it
/// is also the longest the core holds the session lock.
const MAX_BATCH: usize = 512;

/// Split `queue_capacity`, a bound on queued events, into `(frames per
/// batch, batches in the channel)`; the product never exceeds the bound, so
/// a capacity of 8 still backpressures after 8 events. The depth gauge can
/// read one batch more per blocked reader, and one for the batch the core
/// is taking.
pub fn batch_shape(queue_capacity: usize) -> (usize, usize) {
    let cap = (queue_capacity / 4).clamp(1, MAX_BATCH);
    (cap, (queue_capacity / cap).max(1))
}

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
    /// Most frames one batch may carry ([`batch_shape`]).
    batch_cap: usize,
    /// Frames handed to the core and not yet taken by it (mirrored into the
    /// `quill.executor.queue_depth` gauge).
    queue_depth: AtomicU64,
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
    /// Stop accepting + ask readers to wind down; core drains then
    /// finishes the session.
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

    fn depth_add(&self, n: u64) {
        let d = self.queue_depth.fetch_add(n, Ordering::SeqCst) + n;
        self.depth_gauge.set_u64(d);
    }

    fn depth_sub(&self, n: u64) {
        let d = self.queue_depth.fetch_sub(n, Ordering::SeqCst) - n;
        self.depth_gauge.set_u64(d);
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
    core: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    http: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
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
        let (batch_cap, batches) = batch_shape(config.queue_capacity);
        let shared = Arc::new(Shared {
            session: Mutex::new(session),
            handles: Mutex::new(HashMap::new()),
            spans,
            ingest_addr,
            http_addr,
            batch_cap,
            queue_depth: AtomicU64::new(0),
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

        let (tx, rx) = std::sync::mpsc::sync_channel::<Batch>(batches);
        let readers = Arc::new(Mutex::new(Vec::new()));

        let core = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || core_loop(&shared, &rx))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            std::thread::spawn(move || accept_loop(&shared, &ingest_listener, tx, &readers))
        };
        let http = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || http::serve(&shared, &http_listener))
        };

        Ok(ServerHandle {
            shared,
            ingest_addr,
            http_addr,
            core: Some(core),
            acceptor: Some(acceptor),
            http: Some(http),
            readers,
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

    /// Drain and wait until the session has finished (the core thread
    /// exits once the last staged element is routed).
    pub fn finish(&mut self) {
        self.shared.request_finish();
        if let Some(core) = self.core.take() {
            let _ = core.join();
        }
    }

    /// Full shutdown: drain, stop every thread, return final session stats.
    pub fn shutdown(mut self) -> SessionStats {
        self.finish();
        self.shared.request_exit();
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        let readers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.readers.lock());
        for r in readers {
            let _ = r.join();
        }
        if let Some(t) = self.http.take() {
            let _ = t.join();
        }
        self.shared.stats()
    }
}

/// Accept ingest connections until a finish is requested; the request wakes
/// the blocking `accept` with a connection of its own, which is dropped.
fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    tx: SyncSender<Batch>,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.finish_requested() {
        let Ok((stream, _peer)) = listener.accept() else {
            break;
        };
        if shared.finish_requested() {
            break;
        }
        let shared = Arc::clone(shared);
        // quill-lint: allow(hot-path-alloc, reason = "one channel handle per accepted connection, not per event")
        let tx = tx.clone();
        shared.active_readers.fetch_add(1, Ordering::SeqCst);
        shared.conns_total.inc();
        shared
            .conns_gauge
            .set_u64(shared.active_readers.load(Ordering::SeqCst));
        let t = std::thread::spawn(move || {
            read_connection(&shared, stream, &tx);
            let left = shared.active_readers.fetch_sub(1, Ordering::SeqCst) - 1;
            shared.conns_gauge.set_u64(left);
        });
        readers.lock().push(t);
    }
    // Dropping `tx` here lets the core observe disconnection once every
    // reader clone is gone too.
}

/// Read one ingest connection until EOF, error, idle eviction or drain.
fn read_connection(shared: &Arc<Shared>, mut stream: TcpStream, tx: &SyncSender<Batch>) {
    let conn = &shared.config.conn;
    let _ = stream.set_read_timeout(Some(conn.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut decoder = wire::Decoder::new(conn.max_frame_len);
    let mut idle_ticks: u64 = 0;
    let max_idle = conn.idle_ticks();

    loop {
        match decoder.read_from(&mut stream) {
            Ok(0) => break, // EOF: clean close.
            Ok(_) => {
                idle_ticks = 0;
                if !hand_over(shared, &mut decoder, tx) {
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
    hand_over(shared, &mut decoder, tx);
}

/// Decode what the decoder holds and hand it to the core, one batch per
/// read unless the read outgrew the batch cap. A blocking send on a full
/// queue is the backpressure path. Returns `false` to drop the connection
/// (protocol error or core gone).
fn hand_over(shared: &Shared, decoder: &mut wire::Decoder, tx: &SyncSender<Batch>) -> bool {
    loop {
        let batch = match decoder.decode(shared.batch_cap) {
            Ok(batch) if batch.is_empty() => return true,
            Ok(batch) => batch,
            Err(_) => {
                shared.protocol_errors.inc();
                return false;
            }
        };
        let n = batch.len() as u64;
        let hb = batch
            .iter()
            .filter(|item| matches!(item, Item::Heartbeat { .. }))
            .count() as u64;
        shared.ingested.add(n - hb);
        shared.heartbeats.add(hb);
        // Count the batch in before sending: the core may receive (and
        // subtract) the instant the send lands, so adding afterwards would
        // race the gauge below zero.
        shared.depth_add(n);
        if tx.send(batch).is_err() {
            shared.depth_sub(n);
            return false;
        }
    }
}

/// The session core: the only thread that pushes into the session. Exits
/// after finishing the session once a drain was requested and the queue
/// has emptied (or every sender disconnected).
fn core_loop(shared: &Arc<Shared>, rx: &Receiver<Batch>) {
    let tick = shared.config.conn.read_timeout;
    // The arrival sequence. Stamped here, it is exactly the order the
    // session sees events in, and needs no atomic.
    let mut seq: u64 = 0;
    loop {
        match rx.recv_timeout(tick) {
            Ok(batch) => {
                shared.depth_sub(batch.len() as u64);
                let mut session = shared.session.lock();
                // Each run of data frames up to the next heartbeat is one
                // `push_batch`; each row moves into its event as decoded.
                let mut items = batch.into_iter();
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
                    match heartbeat {
                        Some((source, ts)) => session.heartbeat(&Key(source), ts),
                        None => break,
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                let drained = shared.queue_depth.load(Ordering::SeqCst) == 0
                    && shared.active_readers.load(Ordering::SeqCst) == 0;
                if shared.finish_requested() && drained {
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    shared.session.lock().finish();
}
