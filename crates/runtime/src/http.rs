//! A dependency-free HTTP observability endpoint over
//! [`std::net::TcpListener`].
//!
//! [`MetricsServer`] serves three read-only routes from any
//! [`HttpMetricsSource`] (typically a [`ClusterObserver`] or a single
//! [`SchedulerObserver`]):
//!
//! | Route          | Body                                                   |
//! |----------------|--------------------------------------------------------|
//! | `GET /metrics` | Prometheus text format (`text/plain; version=0.0.4`)   |
//! | `GET /trace`   | Chrome trace-event JSON (load in `chrome://tracing`)   |
//! | `GET /healthz` | `ok` with status 200, or 503 when the source is down   |
//!
//! The implementation is deliberately minimal — blocking accept loop on one
//! thread, one request per connection, `Connection: close` — because a
//! scrape every few seconds is the entire expected load.  It exists so the
//! runtime can be observed *live* without adding an HTTP framework
//! dependency (the build environment is offline; see `shims/README.md`).
//!
//! [`ClusterObserver`]: crate::ClusterObserver

use crate::cluster::ClusterObserver;
use crate::scheduler::SchedulerObserver;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection may dribble its request before being dropped;
/// protects the single accept thread from a stalled client.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Pause after a failed `accept()` before retrying.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// What the endpoint serves.  Implemented by the cluster and scheduler
/// observers; implement it yourself to serve any other telemetry source.
pub trait HttpMetricsSource: Send + Sync {
    /// The `/metrics` body (Prometheus text format).
    fn metrics(&self) -> String;

    /// The `/trace` body (Chrome trace-event JSON).
    fn trace_json(&self) -> String;

    /// Whether `/healthz` should answer 200 (the default) or 503.
    fn healthy(&self) -> bool {
        true
    }
}

impl HttpMetricsSource for ClusterObserver {
    fn metrics(&self) -> String {
        self.render_prometheus()
    }

    fn trace_json(&self) -> String {
        self.chrome_trace_json()
    }

    /// Healthy while the cluster is serving: once it begins draining
    /// ([`crate::Cluster::begin_drain`] or `join`) or every shard has
    /// failed, `/healthz` flips to 503 so load balancers stop routing —
    /// `/metrics` keeps answering throughout the drain.
    fn healthy(&self) -> bool {
        !self.is_draining() && self.live_shard_count() > 0
    }
}

impl HttpMetricsSource for SchedulerObserver {
    fn metrics(&self) -> String {
        crate::export::render_prometheus(&[self.telemetry_snapshot()])
    }

    fn trace_json(&self) -> String {
        let mut trace = asv::trace::chrome::ChromeTrace::new();
        trace.add_process_name(0, "shard-0");
        self.add_chrome_trace(&mut trace, 0);
        trace.finish()
    }

    /// Healthy until the shard fails or begins shutting down.
    fn healthy(&self) -> bool {
        !self.is_shutting_down() && !self.is_failed()
    }
}

/// The live observability endpoint: binds a TCP listener and serves
/// `/metrics`, `/trace` and `/healthz` from a background thread until
/// dropped or [`MetricsServer::shutdown`].
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port, then read
    /// [`MetricsServer::local_addr`]) and starts serving `source`.
    ///
    /// # Errors
    ///
    /// Returns the bind error (e.g. the port is taken or privileged).
    pub fn serve(
        addr: impl ToSocketAddrs,
        source: Arc<dyn HttpMetricsSource>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stop_flag.load(Ordering::Acquire) {
                            break;
                        }
                        // Serve inline: scrape traffic is one request every
                        // few seconds, and a stalled client is cut off by
                        // the read timeout.
                        handle_connection(stream, source.as_ref());
                    }
                    Err(_) => {
                        if stop_flag.load(Ordering::Acquire) {
                            break;
                        }
                        // A persistent accept failure (EMFILE, ENFILE, ...)
                        // would otherwise busy-spin this thread at 100% CPU;
                        // transient per-connection errors (ECONNABORTED) just
                        // pay one tick.
                        std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    }
                }
            }
        });
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The accept loop is parked in `accept`; a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Reads one request, routes it and writes one response.  All I/O errors
/// are swallowed: a client that hangs up mid-request costs nothing.
fn handle_connection(stream: TcpStream, source: &dyn HttpMetricsSource) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    match reader.read_line(&mut request_line) {
        // EOF before any request line — the shutdown wake-up connect, port
        // scans, load-balancer TCP probes.  The peer is gone (or never
        // spoke); answering 400 would write into a closed socket.
        Ok(0) => return,
        Ok(_) if request_line.trim().is_empty() => return,
        Ok(_) => {}
        Err(_) => return,
    }
    // Drain the headers so well-behaved clients see the response after a
    // complete request/response cycle; contents are irrelevant.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let mut stream = reader.into_inner();

    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(method), Some(path)) => (method, path),
        _ => {
            respond(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                "bad request\n",
            );
            return;
        }
    };
    if method != "GET" {
        respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
        return;
    }
    // Ignore any query string: `/metrics?foo=1` scrapes like `/metrics`.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &source.metrics(),
        ),
        "/trace" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            &source.trace_json(),
        ),
        "/healthz" => {
            if source.healthy() {
                respond(&mut stream, "200 OK", "text/plain", "ok\n");
            } else {
                respond(
                    &mut stream,
                    "503 Service Unavailable",
                    "text/plain",
                    "unhealthy\n",
                );
            }
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    struct StubSource {
        healthy: bool,
    }

    impl HttpMetricsSource for StubSource {
        fn metrics(&self) -> String {
            "asv_stub 1\n".to_string()
        }

        fn trace_json(&self) -> String {
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n".to_string()
        }

        fn healthy(&self) -> bool {
            self.healthy
        }
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn routes_respond_with_the_documented_statuses() {
        let server = MetricsServer::serve("127.0.0.1:0", Arc::new(StubSource { healthy: true }))
            .expect("bind");
        let addr = server.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.ends_with("asv_stub 1\n"));

        let trace = get(addr, "/trace");
        assert!(trace.contains("application/json"));
        assert!(trace.contains("traceEvents"));

        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(get(addr, "/healthz?verbose=1").starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404 Not Found\r\n"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));

        server.shutdown();
    }

    #[test]
    fn eof_connection_gets_no_response() {
        let server = MetricsServer::serve("127.0.0.1:0", Arc::new(StubSource { healthy: true }))
            .expect("bind");
        let addr = server.local_addr();

        // Connect and immediately half-close without sending a byte — the
        // probe pattern (port scans, LB health checks, the shutdown
        // wake-up).  The server must hang up silently instead of writing
        // `400 Bad Request` into the dead socket.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read until close");
        assert!(
            response.is_empty(),
            "EOF probe received {} unexpected bytes: {:?}",
            response.len(),
            String::from_utf8_lossy(&response)
        );

        // A blank request line (stray CRLF then close) is equally silent.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"\r\n").expect("send blank line");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read until close");
        assert!(response.is_empty(), "blank request line must get no bytes");

        // The endpoint still serves real requests afterwards.
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 OK\r\n"));
        server.shutdown();
    }

    #[test]
    fn unhealthy_source_answers_503() {
        let server = MetricsServer::serve("127.0.0.1:0", Arc::new(StubSource { healthy: false }))
            .expect("bind");
        assert!(get(server.local_addr(), "/healthz")
            .starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
    }
}
