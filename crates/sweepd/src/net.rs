//! Transport for the daemon protocol: TCP or Unix-domain sockets.
//!
//! An endpoint spec containing a `/` names a Unix socket path;
//! anything else is a TCP address (`host:port`). A daemon [`bind`]s a
//! [`Server`], then [`Server::serve`] blocks in `accept` and handles
//! each connection on its own thread, so a request is picked up the
//! moment it connects. A handled `shutdown` wakes the blocked accept by
//! connecting once to the server's own address
//! ([`Server::local_endpoint`]); the loop checks the shutdown flag after
//! every accept and drops that wake connection undispatched. In-flight
//! connections (including jobs still executing after an un-waited
//! `submit`) are drained before `serve` returns.
//!
//! A client must deliver its request within [`REQUEST_READ_TIMEOUT`] of
//! connecting; one that stalls is answered `ok: false` and dropped, so it
//! can neither pin a handler nor hold up the drain. Job-protocol
//! responses are compact single-line JSON; requests stay pretty-printed,
//! which keeps the sync protocol's first-line routing intact.

use crate::proto::{Request, Response, PROTO_VERSION};
use crate::service::{JobState, SweepService};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a client has, from the moment it is accepted, to deliver its
/// whole request (a sync push's binary body gets this long per read
/// instead). Real clients write their request right after connecting.
pub const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Where a daemon listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7070`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint spec: anything containing a `/` is a Unix
    /// socket path, anything else a TCP address.
    pub fn parse(spec: &str) -> Endpoint {
        if spec.contains('/') {
            Endpoint::Unix(PathBuf::from(spec))
        } else {
            Endpoint::Tcp(spec.to_string())
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(timeout)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(timeout)),
        }
    }

    pub(crate) fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// A bound daemon socket that is not serving yet: [`bind`] it, read
/// [`Server::local_endpoint`], then [`Server::serve`].
pub struct Server {
    listener: Listener,
    local: Endpoint,
}

/// Binds a daemon socket, removing a stale Unix socket file first.
///
/// # Errors
///
/// Binding failures, or a Unix endpoint on a platform without them.
pub fn bind(endpoint: &Endpoint) -> std::io::Result<Server> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let mut local = listener.local_addr()?;
            if local.ip().is_unspecified() {
                local.set_ip(match local {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            Ok(Server {
                listener: Listener::Tcp(listener),
                local: Endpoint::Tcp(local.to_string()),
            })
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            // A stale socket file from a previous daemon blocks bind.
            let _ = std::fs::remove_file(path);
            Ok(Server {
                listener: Listener::Unix(UnixListener::bind(path)?),
                local: endpoint.clone(),
            })
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

impl Server {
    /// Where clients reach this server: the socket path, or the bound
    /// TCP address with a `:0` port resolved and a wildcard host
    /// replaced by loopback.
    pub fn local_endpoint(&self) -> &Endpoint {
        &self.local
    }

    /// Runs the accept loop until the service's shutdown flag is raised
    /// (by a `shutdown` request, which also wakes the blocked accept).
    /// Each connection is handled on its own thread; on exit, in-flight
    /// handlers are joined, the cache index is saved, and a Unix socket
    /// file is removed.
    ///
    /// # Errors
    ///
    /// Accept failures.
    pub fn serve(self, service: &Arc<SweepService>) -> std::io::Result<()> {
        let Server { listener, local } = self;
        let wake = Arc::new(local);
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let result = loop {
            let accepted = listener.accept();
            if service.shutdown_requested() {
                break Ok(());
            }
            match accepted {
                Ok(conn) => {
                    let svc = Arc::clone(service);
                    let wake = Arc::clone(&wake);
                    handlers.push(std::thread::spawn(move || handle(&svc, conn, &wake)));
                }
                Err(e) => break Err(e),
            }
            handlers.retain(|h| !h.is_finished());
        };
        // Close the listener before draining: late clients are refused
        // instead of queueing, and any further wake connect fails fast.
        drop(listener);
        for h in handlers {
            let _ = h.join();
        }
        let _ = service.save_cache();
        if let Endpoint::Unix(path) = wake.as_ref() {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// Connects to an endpoint (client side).
pub(crate) fn connect(endpoint: &Endpoint) -> std::io::Result<Conn> {
    match endpoint {
        Endpoint::Tcp(addr) => Ok(Conn::Tcp(TcpStream::connect(addr.as_str())?)),
        #[cfg(unix)]
        Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        #[cfg(not(unix))]
        Endpoint::Unix(_) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

/// Reads up to (and including) the first newline. The job protocol's
/// pretty-printed requests put only `{` on their first line; the sync
/// protocol's requests are complete single-line JSON documents — so
/// the first line alone decides the dispatch path, and a sync body's
/// binary bytes are never consumed by accident.
pub(crate) fn read_line(conn: &mut impl Read, line: &mut String) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match conn.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                bytes.push(byte[0]);
                if byte[0] == b'\n' {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    line.push_str(
        std::str::from_utf8(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?,
    );
    Ok(())
}

/// A connection read that fails with `TimedOut` once `deadline` has
/// passed, however the client paces its bytes.
struct DeadlineReader<'a> {
    conn: &'a mut Conn,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            self.conn.set_read_timeout(left)?;
            match self.conn.read(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                other => return other,
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("request incomplete after {REQUEST_READ_TIMEOUT:?}"),
        ))
    }
}

/// Reads one request, answers it, then performs any deferred work (an
/// un-waited `submit` runs its job *after* the response is on the
/// wire, so the client is never blocked on simulation it didn't ask to
/// wait for).
fn handle(service: &Arc<SweepService>, mut conn: Conn, wake: &Endpoint) {
    let mut text = String::new();
    let mut reader = DeadlineReader {
        conn: &mut conn,
        deadline: Instant::now() + REQUEST_READ_TIMEOUT,
    };
    let read = read_line(&mut reader, &mut text);
    // A complete single-line JSON document with a `sync-*` cmd is a
    // corpus-sync exchange: it keeps the connection (the request or
    // response carries a binary trace body after the JSON line).
    if read.is_ok() {
        if let Some(request) = crate::sync::parse_request(&text) {
            let _ = conn.set_read_timeout(REQUEST_READ_TIMEOUT);
            crate::sync::serve_sync(service, &mut conn, &request);
            return;
        }
    }
    let (response, run_after) = match read.and_then(|()| reader.read_to_string(&mut text)) {
        Ok(_) => dispatch(service, &text),
        Err(e) => (Response::failure(format!("cannot read request: {e}")), None),
    };
    let body =
        serde_json::to_string(&response).unwrap_or_else(|_| "{\"v\":1,\"ok\":false}".to_string());
    let _ = conn.write_all(body.as_bytes());
    let _ = conn.write_all(b"\n");
    let _ = conn.flush();
    drop(conn);
    if service.shutdown_requested() {
        // Wake the accept loop out of its blocking accept; it sees the
        // flag and never dispatches this connection. Handlers finishing
        // after the listener closed just get a refused connect.
        let _ = connect(wake);
    }
    if let Some(id) = run_after {
        service.run(id);
    }
}

/// Parses and executes one request. Returns the response plus the id of
/// a job to run after replying (un-waited submits).
fn dispatch(service: &Arc<SweepService>, text: &str) -> (Response, Option<u64>) {
    let request: Request = match serde_json::from_str(text) {
        Ok(r) => r,
        Err(e) => return (Response::failure(format!("bad request: {e}")), None),
    };
    if request.v != PROTO_VERSION {
        return (
            Response::failure(format!(
                "protocol version {} unsupported (this daemon speaks {PROTO_VERSION})",
                request.v
            )),
            None,
        );
    }
    match request.cmd.as_str() {
        "ping" => (Response::success(), None),
        "submit" => {
            let Some(plan) = request.plan else {
                return (Response::failure("submit needs a plan"), None);
            };
            match service.submit(plan) {
                Err(e) => (Response::failure(e.to_string()), None),
                Ok(id) if request.wait => {
                    service.run(id);
                    finished(service, id)
                }
                Ok(id) => {
                    let mut r = Response::success();
                    r.job = Some(id);
                    r.status = service.status(id);
                    (r, Some(id))
                }
            }
        }
        "status" => match request.job {
            Some(id) => match service.status(id) {
                Some(status) => {
                    let mut r = Response::success();
                    r.job = Some(id);
                    r.status = Some(status);
                    (r, None)
                }
                None => (Response::failure(format!("unknown job {id}")), None),
            },
            None => {
                let mut r = Response::success();
                r.jobs = Some(service.statuses());
                (r, None)
            }
        },
        "result" => match request.job {
            Some(id) => finished(service, id),
            None => (Response::failure("result needs a job id"), None),
        },
        "cache-stats" => {
            let (stats, entries) = service.cache_stats();
            let mut r = Response::success();
            r.cache = Some(stats);
            r.cache_entries = Some(entries as u64);
            (r, None)
        }
        "cache-gc" => match service.cache_gc(request.max_bytes, request.max_age_days) {
            Ok(report) => {
                let mut r = Response::success();
                r.gc = Some(report);
                (r, None)
            }
            Err(e) => (Response::failure(e.to_string()), None),
        },
        "shutdown" => {
            service.request_shutdown();
            (Response::success(), None)
        }
        other => (
            Response::failure(format!("unknown command `{other}`")),
            None,
        ),
    }
}

/// Waits for a job's terminal state and builds the response carrying
/// its status and (when done) its merged grid.
fn finished(service: &Arc<SweepService>, id: u64) -> (Response, Option<u64>) {
    let Some((status, merged)) = service.wait(id) else {
        return (Response::failure(format!("unknown job {id}")), None);
    };
    let failed = status.state == JobState::Failed;
    let mut r = if failed {
        Response::failure(
            status
                .error
                .clone()
                .unwrap_or_else(|| format!("job {id} failed")),
        )
    } else {
        Response::success()
    };
    r.job = Some(id);
    r.status = Some(status);
    r.merged = merged;
    (r, None)
}

/// Sends one request to a daemon and returns its response: connect,
/// write the request, shut down the write half, read the reply to EOF.
///
/// # Errors
///
/// Connection/IO failures, or `InvalidData` when the reply is not a
/// parsable [`Response`].
pub fn request(endpoint: &Endpoint, request: &Request) -> std::io::Result<Response> {
    let mut conn = connect(endpoint)?;
    let body = serde_json::to_string_pretty(request)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    conn.write_all(body.as_bytes())?;
    conn.flush()?;
    conn.shutdown_write()?;
    let mut reply = String::new();
    conn.read_to_string(&mut reply)?;
    serde_json::from_str(&reply).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad reply: {e}"))
    })
}
