//! The threaded serving loop: accept connections, decode frames, answer
//! from epoch snapshots.
//!
//! Three design points carry the subsystem:
//!
//! * **One snapshot per request, answered on its connection thread.** Each
//!   connection has its own thread, which decodes a request, takes one
//!   embedding snapshot (an `Arc` clone under a read lock), checks the
//!   request's ids against that snapshot's universe and answers from the
//!   same snapshot. The response carries that snapshot's epoch, so a node
//!   retired by a concurrent publish is refused as `RetiredNode`, never
//!   answered from a newer universe as an empty row. No request waits on
//!   another thread.
//! * **Admission control.** Data-plane requests occupy one of
//!   [`ServerConfig::max_inflight`] slots; when the slots are gone the
//!   server answers a typed [`ErrorCode::Overloaded`] instead of queueing
//!   unboundedly. Control-plane requests (`metrics`, `epoch`) bypass
//!   admission so the instance stays observable while saturated.
//! * **Degrade, don't panic.** Malformed frames produce a
//!   [`ErrorCode::BadRequest`] reply (when the connection is still
//!   writable) and close that connection only.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use uninet_core::{EmbeddingSnapshot, Engine};

use crate::metrics::ServerMetrics;
use crate::proto::{write_frame, ErrorCode, Request, Response};

const ACCEPT_POLL: Duration = Duration::from_millis(20);
const READ_POLL: Duration = Duration::from_millis(100);

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A TCP address, e.g. `127.0.0.1:7878`.
    Tcp(String),
    /// A Unix-domain socket path, spelled `unix:<path>` on the CLI.
    Unix(PathBuf),
}

impl ServeAddr {
    /// Parses the CLI spelling: `unix:<path>` selects a Unix socket,
    /// anything else is treated as a TCP bind address.
    pub fn parse(spec: &str) -> ServeAddr {
        match spec.strip_prefix("unix:") {
            Some(path) => ServeAddr::Unix(PathBuf::from(path)),
            None => ServeAddr::Tcp(spec.to_string()),
        }
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Tcp(addr) => write!(f, "{addr}"),
            ServeAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Serving-plane knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum data-plane requests answered concurrently before the server
    /// replies `Overloaded`. `metrics`/`epoch` are exempt.
    pub max_inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_inflight: 64 }
    }
}

/// RAII data-plane admission slot.
struct AdmissionGuard<'a> {
    inflight: &'a AtomicUsize,
    metrics: &'a ServerMetrics,
}

impl<'a> AdmissionGuard<'a> {
    /// Claims a slot, or `None` when the server is at `max_inflight`.
    fn acquire(inflight: &'a AtomicUsize, max: usize, metrics: &'a ServerMetrics) -> Option<Self> {
        inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < max).then_some(n + 1)
            })
            .ok()?;
        metrics.inflight.add(1);
        Some(AdmissionGuard { inflight, metrics })
    }
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        self.metrics.inflight.add(-1);
    }
}

struct Shared {
    engine: Engine,
    metrics: ServerMetrics,
    inflight: AtomicUsize,
    max_inflight: usize,
    stop: Arc<AtomicBool>,
}

/// Refuses queries that name an id outside the snapshot's live universe.
/// The in-range/live split yields distinct typed errors: an id the universe
/// never contained is [`ErrorCode::UnknownNode`]; an id that arrived and was
/// later retired is [`ErrorCode::RetiredNode`]. Either way the server never
/// answers from the (stale) embedding row.
fn check_universe(snapshot: &EmbeddingSnapshot, node: u32) -> Result<(), Response> {
    if !snapshot.in_range(node) {
        Err(Response::Error {
            code: ErrorCode::UnknownNode,
            message: format!(
                "node {node} is outside the {}-row universe",
                snapshot.num_nodes()
            ),
        })
    } else if !snapshot.is_live(node) {
        Err(Response::Error {
            code: ErrorCode::RetiredNode,
            message: format!("node {node} was retired from the universe"),
        })
    } else {
        Ok(())
    }
}

/// Answers a data-plane request from one snapshot: the universe check and
/// the answer see the same universe, and the response carries its epoch.
fn answer_from(snapshot: &EmbeddingSnapshot, request: &Request) -> Result<Response, Response> {
    let epoch = snapshot.epoch();
    Ok(match request {
        Request::Vector { node } => {
            check_universe(snapshot, *node)?;
            Response::Vector {
                epoch,
                vector: Some(snapshot.embeddings().vector(*node).to_vec()),
            }
        }
        Request::Cosine { a, b } => {
            check_universe(snapshot, *a)?;
            check_universe(snapshot, *b)?;
            Response::Cosine {
                epoch,
                value: snapshot.cosine(*a, *b),
            }
        }
        Request::TopK { node, k, mode } => {
            check_universe(snapshot, *node)?;
            Response::TopK {
                epoch,
                neighbors: snapshot.top_k_mode(*node, *k as usize, *mode),
            }
        }
        Request::TopKBatch { nodes, k, mode } => {
            for node in nodes {
                check_universe(snapshot, *node)?;
            }
            Response::TopKBatch {
                epoch,
                rows: snapshot.top_k_batch(nodes, *k as usize, *mode),
            }
        }
        Request::Metrics | Request::Epoch => unreachable!("control plane bypasses snapshots"),
    })
}

fn answer(shared: &Shared, request: &Request) -> Response {
    let store = shared.engine.store();
    match request {
        Request::Metrics => Response::Metrics {
            json: shared.engine.metrics().to_json(),
        },
        Request::Epoch => Response::Epoch {
            epoch: store.epoch(),
        },
        data_plane => {
            let Some(_slot) =
                AdmissionGuard::acquire(&shared.inflight, shared.max_inflight, &shared.metrics)
            else {
                shared.metrics.rejected_overload.inc();
                return Response::Error {
                    code: ErrorCode::Overloaded,
                    message: format!(
                        "{} data-plane requests already in flight",
                        shared.max_inflight
                    ),
                };
            };
            answer_from(&store.snapshot(), data_plane).unwrap_or_else(|refusal| refusal)
        }
    }
}

/// Fills `buf`, riding out read timeouts so the `stop` flag is polled
/// between them without losing partially-read bytes. `Ok(None)` means clean
/// EOF (only legal at `eof_ok_at_start`) or shutdown.
fn read_full<S: Read>(
    stream: &mut S,
    buf: &mut [u8],
    stop: &AtomicBool,
    eof_ok_at_start: bool,
) -> io::Result<Option<()>> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && eof_ok_at_start => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(()))
}

/// Reads one frame, polling `stop` across read timeouts. `Ok(None)` means
/// clean EOF or shutdown.
fn read_frame_polling<S: Read>(stream: &mut S, stop: &AtomicBool) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    if read_full(stream, &mut len_buf, stop, true)?.is_none() {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > crate::proto::MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    if read_full(stream, &mut payload, stop, false)?.is_none() {
        return Ok(None);
    }
    Ok(Some(payload))
}

fn handle_connection<S: Read + Write>(stream: &mut S, shared: &Shared) {
    shared.metrics.connections.inc();
    loop {
        let payload = match read_frame_polling(stream, &shared.stop) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(_) => return,
        };
        shared.metrics.requests.inc();
        let response = match Request::decode(&payload) {
            Ok(request) => {
                let started = Instant::now();
                let response = answer(shared, &request);
                shared.metrics.record_latency(&request, started.elapsed());
                response
            }
            Err(e) => {
                shared.metrics.bad_requests.inc();
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                }
            }
        };
        let fatal = matches!(
            response,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        );
        if write_frame(stream, &response.encode()).is_err() {
            return;
        }
        if fatal {
            return;
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

fn run_accept_loop(
    listener: Listener,
    shared: Arc<Shared>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(conn) => {
                let shared = Arc::clone(&shared);
                let handle = thread::spawn(move || match conn {
                    Conn::Tcp(mut s) => {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_read_timeout(Some(READ_POLL));
                        handle_connection(&mut s, &shared);
                    }
                    Conn::Unix(mut s) => {
                        let _ = s.set_read_timeout(Some(READ_POLL));
                        handle_connection(&mut s, &shared);
                    }
                });
                conn_threads.lock().unwrap().push(handle);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// A running server. Dropping it (or calling [`ServerHandle::shutdown`])
/// stops the accept loop and every connection thread.
pub struct ServerHandle {
    addr: ServeAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    unix_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound address — for TCP this is the *resolved* address, so
    /// binding `127.0.0.1:0` reports the kernel-assigned port.
    pub fn addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// Stops accepting, drains in-flight work and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `addr` and starts serving `engine` until the handle is shut down.
///
/// The engine handle is cloned internally (it is an `Arc` facade), so the
/// caller keeps full use of its own handle — including publishing new
/// epochs via `train`/`stream` while the server answers queries.
pub fn serve(engine: &Engine, addr: &ServeAddr, config: ServerConfig) -> io::Result<ServerHandle> {
    let (listener, resolved, unix_path) = match addr {
        ServeAddr::Tcp(spec) => {
            let l = TcpListener::bind(spec.as_str())?;
            l.set_nonblocking(true)?;
            let resolved = ServeAddr::Tcp(l.local_addr()?.to_string());
            (Listener::Tcp(l), resolved, None)
        }
        ServeAddr::Unix(path) => {
            // A stale socket file from a killed process would fail the bind.
            if path.exists() {
                let _ = std::fs::remove_file(path);
            }
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            (Listener::Unix(l), addr.clone(), Some(path.clone()))
        }
    };

    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        engine: engine.clone(),
        metrics: ServerMetrics::register(&engine.metrics_registry()),
        inflight: AtomicUsize::new(0),
        max_inflight: config.max_inflight,
        stop: Arc::clone(&stop),
    });

    let conn_threads = Arc::new(Mutex::new(Vec::new()));
    let accept_thread = {
        let shared = Arc::clone(&shared);
        let conn_threads = Arc::clone(&conn_threads);
        thread::Builder::new()
            .name("uninet-serve-accept".to_string())
            .spawn(move || run_accept_loop(listener, shared, conn_threads))?
    };

    Ok(ServerHandle {
        addr: resolved,
        stop,
        accept_thread: Some(accept_thread),
        conn_threads,
        unix_path,
    })
}
