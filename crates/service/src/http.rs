//! A minimal HTTP/1.1 server on `std::net`: one acceptor thread that serves
//! each accepted connection on a thread of its own, with keep-alive support
//! and graceful shutdown.
//!
//! The server is deliberately small: `GET`/`POST`, `Content-Length` framing
//! only (no chunked transfer), byte-limited headers and bodies, and a
//! [`Handler`] trait the LCMSR service implements.  Anything malformed gets a
//! clean `400` and the connection closed.  At most `http_workers`
//! connections are served at once; later ones wait in the kernel's listen
//! backlog until one closes.  A connection frees its slot when its thread
//! returns or unwinds, so a panicking handler costs its own connection,
//! never the server.

use crate::sync::{lock_or_recover, wait_or_recover};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Largest accepted request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// The most connections served at once, each on its own thread.  Later
    /// connections wait in the kernel's listen backlog until one closes.
    pub http_workers: usize,
    /// Largest accepted request body, bytes; larger bodies get a `400`.
    pub max_body_bytes: usize,
    /// Per-read socket timeout.  A silent or idle connection frees its slot
    /// after this long instead of holding it forever — without it a handful
    /// of open-and-say-nothing clients would take every `http_workers` slot.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            http_workers: 8,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, upper-case (`GET`, `POST`, …).
    pub method: String,
    /// Request path, without the query string.
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this exchange.
    pub wants_close: bool,
}

impl HttpRequest {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if it is valid.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Force-close the connection after sending.
    pub close: bool,
    /// Extra response headers (name, value), emitted verbatim after the
    /// standard ones.  Callers must pass CRLF-free values (the service layer
    /// only puts validated request ids here).
    pub headers: Vec<(String, String)>,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
            headers: Vec::new(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            close: false,
            headers: Vec::new(),
        }
    }

    /// Attaches an extra response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    fn write_to(&self, mut stream: &TcpStream, close: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len()
        );
        // Fallback only: the service layer attaches a scheduler-derived
        // Retry-After estimate to shed responses; a bare 503 from anywhere
        // else still promises *some* retry hint rather than none.
        let has_retry_after = self
            .headers
            .iter()
            .any(|(name, _)| name.eq_ignore_ascii_case("retry-after"));
        if self.status == 503 && !has_retry_after {
            head.push_str("Retry-After: 1\r\n");
        }
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(if close {
            "Connection: close\r\n\r\n"
        } else {
            "Connection: keep-alive\r\n\r\n"
        });
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Request handler implemented by the service layer.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one request.
    fn handle(&self, request: &HttpRequest) -> HttpResponse;
}

/// Reasons a request could not be parsed off the wire.
enum ReadOutcome {
    /// A complete request.
    Request(HttpRequest),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The bytes on the wire were not a valid request; respond 400 and close.
    Malformed(String),
}

/// Result of reading one head line against the remaining byte budget.
enum HeadLine {
    /// A complete line is in the buffer.
    Line,
    /// Clean end of stream before any byte of this line.
    Eof,
    /// The line would exceed the head budget — stop before buffering it.
    TooLarge,
    /// The line is not UTF-8 text.
    NotText,
}

/// Reads one line, never buffering more than `budget + 1` bytes (the hard cap
/// a hostile client cannot push past by simply omitting newlines).
fn read_head_line(
    reader: &mut BufReader<&TcpStream>,
    line: &mut String,
    budget: &mut usize,
) -> std::io::Result<HeadLine> {
    line.clear();
    let mut limited = Read::by_ref(reader).take(*budget as u64 + 1);
    let read = match limited.read_line(line) {
        Ok(n) => n,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => return Ok(HeadLine::NotText),
        Err(e) => return Err(e),
    };
    if read == 0 {
        return Ok(HeadLine::Eof);
    }
    if read > *budget {
        return Ok(HeadLine::TooLarge);
    }
    *budget -= read;
    Ok(HeadLine::Line)
}

fn read_request(
    reader: &mut BufReader<&TcpStream>,
    max_body_bytes: usize,
) -> std::io::Result<ReadOutcome> {
    let mut line = String::new();
    let mut head_budget = MAX_HEAD_BYTES;
    match read_head_line(reader, &mut line, &mut head_budget)? {
        HeadLine::Eof => return Ok(ReadOutcome::Closed),
        HeadLine::TooLarge => return Ok(ReadOutcome::Malformed("request head too large".into())),
        HeadLine::NotText => return Ok(ReadOutcome::Malformed("request head is not text".into())),
        HeadLine::Line => {}
    }
    let request_line = line.trim_end().to_string();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Malformed("malformed request line".into()));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Malformed("malformed request line".into()));
    }
    let http10 = version == "HTTP/1.0";

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        match read_head_line(reader, &mut line, &mut head_budget)? {
            HeadLine::Eof => {
                return Ok(ReadOutcome::Malformed(
                    "connection closed mid-headers".into(),
                ))
            }
            HeadLine::TooLarge => {
                return Ok(ReadOutcome::Malformed("request head too large".into()))
            }
            HeadLine::NotText => {
                return Ok(ReadOutcome::Malformed("request head is not text".into()))
            }
            HeadLine::Line => {}
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Ok(ReadOutcome::Malformed("malformed header line".into()));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Ok(ReadOutcome::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    // Like Transfer-Encoding above, duplicate Content-Length headers are an
    // invitation to framing desync (request smuggling behind a proxy that
    // picks the other one) — reject rather than pick a winner.
    if headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .count()
        > 1
    {
        return Ok(ReadOutcome::Malformed(
            "duplicate Content-Length headers".into(),
        ));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0usize,
        Some((_, v)) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Ok(ReadOutcome::Malformed("malformed Content-Length".into())),
        },
    };
    if content_length > max_body_bytes {
        return Ok(ReadOutcome::Malformed(format!(
            "request body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    if let Err(e) = reader.read_exact(&mut body) {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            // A truncated body (client hung up or lied about Content-Length).
            return Ok(ReadOutcome::Malformed("truncated request body".into()));
        }
        return Err(e);
    }

    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let wants_close = match connection.as_deref() {
        Some("close") => true,
        Some("keep-alive") => false,
        _ => http10,
    };
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok(ReadOutcome::Request(HttpRequest {
        method: method.to_ascii_uppercase(),
        path,
        headers,
        body,
        wants_close,
    }))
}

#[derive(Debug)]
struct ServerShared {
    shutdown: AtomicBool,
    /// `try_clone`d handles of the open connections, shut down to unblock
    /// connection threads parked in `read` during graceful shutdown.  Its
    /// length is the number of slots in use.
    open: Mutex<Vec<(u64, TcpStream)>>,
    /// Signalled when a connection closes, and at shutdown.
    slot_freed: Condvar,
    next_conn_id: AtomicU64,
    /// The most connections served at once (`http_workers`).
    max_open: usize,
    max_body_bytes: usize,
    /// Per-read socket timeout applied to every accepted connection.
    read_timeout: Duration,
}

impl ServerShared {
    /// Blocks while every slot is taken; `false` once shutdown has begun.
    fn wait_for_slot(&self) -> bool {
        let mut open = lock_or_recover(&self.open);
        while open.len() >= self.max_open && !self.shutdown.load(Ordering::SeqCst) {
            open = wait_or_recover(&self.slot_freed, open);
        }
        !self.shutdown.load(Ordering::SeqCst)
    }

    /// Takes a slot for `stream`, or drops it if shutdown has begun (or its
    /// handle cannot be cloned).  The flag is read under the registry lock,
    /// so the shutdown sweep either sees this connection or it is never
    /// served.
    fn register(&self, stream: TcpStream) -> Option<Connection<'_>> {
        let clone = stream.try_clone().ok()?;
        let mut open = lock_or_recover(&self.open);
        if self.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        open.push((id, clone));
        Some(Connection {
            shared: self,
            id,
            stream,
        })
    }
}

/// An open connection holding one slot.  Dropping it — on return or on
/// unwind — closes the socket and frees the slot.
struct Connection<'a> {
    shared: &'a ServerShared,
    id: u64,
    stream: TcpStream,
}

impl Drop for Connection<'_> {
    fn drop(&mut self) {
        lock_or_recover(&self.shared.open).retain(|(id, _)| *id != self.id);
        self.shared.slot_freed.notify_one();
    }
}

/// A running HTTP server.
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Gracefully shuts down: stop accepting, unblock parked reads, let
    /// in-flight responses finish, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Blocks until the server stops (i.e. forever, for a foreground server
    /// that only dies with the process).
    pub fn wait(mut self) {
        // A join error means a thread panicked (the acceptor's scope re-raises
        // a connection thread's panic when it closes); the panic is already
        // on stderr and re-raising it here would only take the supervisor
        // down too.
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake an acceptor parked in `accept` with a connection to ourselves.
        // Bounded: a backlog full enough to stall the handshake means the
        // acceptor is not in `accept`, so it does not need this wake-up.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(100));
        // Unblock connection threads parked reading the next keep-alive
        // request.  The sweep takes the registry lock after the flag is set,
        // so an acceptor that saw the flag unset in `wait_for_slot` is
        // already waiting, and the notification below wakes it.
        for (_, stream) in lock_or_recover(&self.shared.open).iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        self.shared.slot_freed.notify_all();
        // The acceptor's scope joins every connection thread.
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_in_place();
        }
    }
}

/// Starts the server: binds and spawns the acceptor thread.
pub fn start(config: &ServerConfig, handler: Arc<dyn Handler>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(ServerShared {
        shutdown: AtomicBool::new(false),
        open: Mutex::new(Vec::new()),
        slot_freed: Condvar::new(),
        next_conn_id: AtomicU64::new(0),
        max_open: config.http_workers.max(1),
        max_body_bytes: config.max_body_bytes,
        read_timeout: config.read_timeout,
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("lcmsr-acceptor".into())
            .spawn(move || accept_loop(&listener, &shared, handler.as_ref()))?
    };
    Ok(ServerHandle {
        local_addr,
        shared,
        acceptor: Some(acceptor),
    })
}

/// Accepts connections until shutdown, each served on a thread of its own
/// once a slot is free.  Returns only after every connection thread ends.
fn accept_loop(listener: &TcpListener, shared: &ServerShared, handler: &dyn Handler) {
    std::thread::scope(|scope| {
        while shared.wait_for_slot() {
            let Ok((stream, _)) = listener.accept() else {
                // Persistent accept failures (e.g. fd exhaustion under
                // overload) must not busy-spin a core.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(shared.read_timeout));
            let Some(connection) = shared.register(stream) else {
                continue;
            };
            // If no thread can be started, the closure is dropped with the
            // connection in it: that connection closes, the server goes on.
            let _ = std::thread::Builder::new()
                .name("lcmsr-http".into())
                .spawn_scoped(scope, move || serve_connection(&connection, handler));
        }
    });
}

fn serve_connection(connection: &Connection<'_>, handler: &dyn Handler) {
    let shared = connection.shared;
    let stream = &connection.stream;
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, shared.max_body_bytes) {
            Err(_) | Ok(ReadOutcome::Closed) => break,
            Ok(ReadOutcome::Malformed(message)) => {
                // A framing error: answer 400 and drop the connection (we can
                // no longer tell where the next request would start).
                let response = HttpResponse::json(
                    400,
                    crate::api::error_body(&format!("malformed request: {message}")),
                );
                let _ = response.write_to(stream, true);
                break;
            }
            Ok(ReadOutcome::Request(request)) => {
                let response = handler.handle(&request);
                let close =
                    response.close || request.wants_close || shared.shutdown.load(Ordering::SeqCst);
                if response.write_to(stream, close).is_err() || close {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;

    /// Echoes method, path and body length; `/close` forces connection close.
    struct EchoHandler;

    impl Handler for EchoHandler {
        fn handle(&self, request: &HttpRequest) -> HttpResponse {
            let mut response = HttpResponse::text(
                200,
                format!("{} {} {}", request.method, request.path, request.body.len()),
            );
            if request.path == "/close" {
                response.close = true;
            }
            response
        }
    }

    fn start_echo() -> ServerHandle {
        start(
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                http_workers: 2,
                max_body_bytes: 1024,
                ..ServerConfig::default()
            },
            Arc::new(EchoHandler),
        )
        .unwrap()
    }

    #[test]
    fn silent_connections_release_their_worker_after_the_read_timeout() {
        let server = start(
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                http_workers: 1,
                max_body_bytes: 1024,
                read_timeout: Duration::from_millis(150),
            },
            Arc::new(EchoHandler),
        )
        .unwrap();
        // A client that connects and says nothing: with only one worker this
        // would wedge the whole server if the timeout did not fire.
        let silent = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        // The worker must be free again to serve a real client.
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, _) = client.get("/after-timeout").unwrap();
        assert_eq!(status, 200);
        drop(silent);
        server.shutdown();
    }

    #[test]
    fn serves_requests_with_keep_alive() {
        let server = start_echo();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for i in 0..3 {
            let (status, body) = client
                .post("/echo", &format!("body{i}"))
                .expect("keep-alive request");
            assert_eq!(status, 200);
            assert_eq!(body, "POST /echo 5");
        }
        let (status, body) = client.get("/plain?x=1").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "GET /plain 0", "query string is stripped from path");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = start_echo();
        let addr = server.addr();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    for i in 0..5 {
                        let (status, body) = client.post("/t", &format!("{t}:{i}")).unwrap();
                        assert_eq!(status, 200);
                        assert_eq!(body, "POST /t 3");
                    }
                });
            }
        });
        server.shutdown();
    }

    #[test]
    fn malformed_framing_gets_a_400_and_close() {
        let server = start_echo();
        // Not HTTP at all.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut response = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        // Oversized body (limit is 1024 in the fixture).
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /x HTTP/1.1\r\ncontent-length: 99999\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("exceeds"), "{response}");

        // Truncated body: promised 10 bytes, sent 3, hung up.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut response = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        // Chunked transfer encoding is refused, not mis-framed.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        // Duplicate Content-Length headers are a framing ambiguity → 400.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /x HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 4\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("duplicate Content-Length"), "{response}");

        // The server survives all of that.
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.get("/alive").unwrap().0, 200);
        server.shutdown();
    }

    #[test]
    fn oversized_request_heads_are_bounded_not_buffered() {
        let server = start_echo();

        // A request line longer than MAX_HEAD_BYTES with no newline at all:
        // the server must answer 400 after the budget, not buffer forever.
        // Payloads are sized to exactly what the server will read, so its
        // close sends a clean FIN (no unread bytes → no RST eating the 400).
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let prefix = b"GET /";
        let filler = vec![b'a'; MAX_HEAD_BYTES + 1 - prefix.len()];
        stream.write_all(prefix).unwrap();
        stream.write_all(&filler).unwrap();
        let mut response = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("head too large"), "{response}");

        // A single giant header line trips the same cumulative budget.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let request_line = b"GET /x HTTP/1.1\r\n";
        let header_prefix = b"x-big: ";
        let remaining = MAX_HEAD_BYTES - request_line.len();
        let filler = vec![b'b'; remaining + 1 - header_prefix.len()];
        stream.write_all(request_line).unwrap();
        stream.write_all(header_prefix).unwrap();
        stream.write_all(&filler).unwrap();
        let mut response = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("head too large"), "{response}");

        // Non-UTF-8 head bytes get a clean 400 too (the line is consumed in
        // full through its newline, so the close is again a clean FIN).
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /\xff\xfe\xfd HTTP/1.1\r\n").unwrap();
        let mut response = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("not text"), "{response}");

        // And the server still serves.
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.get("/alive").unwrap().0, 200);
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_unblocks_idle_keep_alive_connections() {
        let server = start_echo();
        let addr = server.addr();
        // An idle keep-alive connection parks a worker in read.
        let mut idle = HttpClient::connect(addr).unwrap();
        assert_eq!(idle.get("/x").unwrap().0, 200);
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "shutdown must not wait for idle connections"
        );
        // New connections are refused (or reset) after shutdown.
        assert!(
            HttpClient::connect(addr).is_err() || {
                let mut c = HttpClient::connect(addr).unwrap();
                c.get("/x").is_err()
            }
        );
    }

    /// Panics on `/panic`, echoes otherwise.
    struct PanicHandler;

    impl Handler for PanicHandler {
        fn handle(&self, request: &HttpRequest) -> HttpResponse {
            assert_ne!(request.path, "/panic", "injected handler panic");
            EchoHandler.handle(request)
        }
    }

    #[test]
    fn a_panicking_handler_closes_its_own_connection_and_the_server_serves_on() {
        let http_workers = 2;
        let server = start(
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                http_workers,
                max_body_bytes: 1024,
                ..ServerConfig::default()
            },
            Arc::new(PanicHandler),
        )
        .unwrap();
        // One more panic than there are slots: a panic that kept its slot,
        // or its socket, would wedge the server or hang its client.
        for _ in 0..=http_workers {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(1)))
                .unwrap();
            stream.write_all(b"GET /panic HTTP/1.1\r\n\r\n").unwrap();
            let mut response = Vec::new();
            stream
                .read_to_end(&mut response)
                .expect("the panicking request's connection closes within 1 s");
            assert!(response.is_empty(), "{response:?}");
        }
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        stream
            .write_all(b"GET /alive HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("an honest request is answered within 2 s");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        server.shutdown();
    }

    /// Sheds everything: `/estimated` carries an explicit Retry-After, the
    /// other routes rely on the bare-503 fallback.
    struct ShedHandler;

    impl Handler for ShedHandler {
        fn handle(&self, request: &HttpRequest) -> HttpResponse {
            let response = HttpResponse::text(503, "shed");
            if request.path == "/estimated" {
                response.with_header("Retry-After", "7")
            } else {
                response
            }
        }
    }

    #[test]
    fn explicit_retry_after_suppresses_the_fallback() {
        let server = start(
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                http_workers: 1,
                ..ServerConfig::default()
            },
            Arc::new(ShedHandler),
        )
        .unwrap();
        let raw_503 = |path: &str| {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
                .unwrap();
            let mut response = String::new();
            BufReader::new(&stream)
                .read_to_string(&mut response)
                .unwrap();
            response
        };
        // An explicit estimate travels alone — no duplicate fallback header.
        let estimated = raw_503("/estimated");
        assert!(estimated.contains("Retry-After: 7\r\n"), "{estimated}");
        assert_eq!(
            estimated
                .to_ascii_lowercase()
                .matches("retry-after")
                .count(),
            1,
            "{estimated}"
        );
        // A bare 503 still promises the 1 s fallback.
        let bare = raw_503("/bare");
        assert!(bare.contains("Retry-After: 1\r\n"), "{bare}");
        server.shutdown();
    }

    #[test]
    fn http_response_reasons_cover_service_statuses() {
        for (status, reason) in [
            (200, "OK"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (405, "Method Not Allowed"),
            (500, "Internal Server Error"),
            (503, "Service Unavailable"),
            (418, "Response"),
        ] {
            assert_eq!(HttpResponse::reason(status), reason);
        }
    }
}
