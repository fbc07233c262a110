//! The HTTP workloads: a `lwt_net::http` server on the runtime under
//! test, driven by this file's own plain `std::net` load generator
//! (it shares no code with the server it measures).
//!
//! * `rpc` — closed loop: each generator thread holds one keep-alive
//!   connection and sends its next GET only after the previous reply.
//! * `accept` — open loop: arrivals follow a seeded Poisson schedule,
//!   each on a new `Connection: close` connection; a request that had
//!   to wait for a free connection is timed from its due time.
//!
//! Every response is checked byte for byte (status and body). A
//! mismatch is a correctness failure; an I/O error or a `503` shed is
//! a failed request.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lwt_core::{BackendKind, Glt};
use lwt_net::http::{self, Request, Response, ServerConfig, ServerHandle};

use crate::{ns, rng, sys, trace, Sample, Segment, Setup};

/// Response body size of each route, bytes.
const ROUTE_SIZES: [usize; 5] = [16, 128, 512, 2048, 8192];
/// Requests each connection sends during set-up, before measuring.
const WARM_REQUESTS: usize = 20;
/// Generator-side I/O timeout: a request stuck this long has failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// The 1-based request number at which the `body` self-test fault
/// corrupts a response: past the warm-up, inside the measured window.
const FAULT_AT: u64 = 100;

/// Open- or closed-loop traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Keep-alive connections, one outstanding request each.
    Closed,
    /// A new `Connection: close` connection per arrival at `rate`/s.
    Open {
        /// Mean arrivals per second of the Poisson schedule.
        rate: f64,
    },
}

/// The seeded route table: route `k` answers with `bodies[k]`.
pub struct Routes {
    bodies: Vec<Vec<u8>>,
}

impl Routes {
    fn new(seed: u64) -> Routes {
        let bodies = ROUTE_SIZES
            .iter()
            .enumerate()
            .map(|(k, &len)| {
                let mut r = rng::Rng::new(seed, 0xB0D7 + k as u64);
                (0..len).map(|_| r.next_u64() as u8).collect()
            })
            .collect();
        Routes { bodies }
    }

    fn request(k: usize, close: bool) -> Vec<u8> {
        let conn = if close { "Connection: close\r\n" } else { "" };
        format!("GET /r{k} HTTP/1.1\r\nHost: bench\r\n{conn}\r\n").into_bytes()
    }
}

/// The server's handler: route lookup, nothing else.
fn handler(routes: Arc<Routes>, fault: bool) -> impl Fn(&Request) -> Response + Send + Sync {
    let served = AtomicU64::new(0);
    move |req| {
        let route = req
            .target
            .strip_prefix("/r")
            .and_then(|k| k.parse::<usize>().ok())
            .and_then(|k| routes.bodies.get(k));
        let Some(body) = route else {
            return Response::new(404);
        };
        let mut body = body.clone();
        // Self-test hook: a corrupted body must make the run fail.
        if fault && served.fetch_add(1, Ordering::Relaxed) + 1 == FAULT_AT {
            body[0] ^= 0xFF;
        }
        Response::ok(body)
    }
}

/// One runtime instance serving HTTP, plus the generator's
/// connections (closed loop only).
pub struct Instance {
    glt: Glt,
    server: ServerHandle,
    addr: SocketAddr,
    routes: Arc<Routes>,
    conns: Vec<TcpStream>,
    mode: Mode,
    seed: u64,
    requests: u64,
}

/// Build the runtime, bind and serve, open the generator's
/// connections and warm every one up.
///
/// # Errors
///
/// Bind/serve failures and any warm-up request that fails or is wrong.
pub fn start(
    kind: BackendKind,
    workers: usize,
    seed: u64,
    conns: usize,
    mode: Mode,
    fault: bool,
) -> Result<(Instance, Setup), String> {
    let t0 = Instant::now();
    let glt = Glt::builder(kind).workers(workers).build();
    let build = t0.elapsed();
    let routes = Arc::new(Routes::new(seed));
    let listener = lwt_net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let server = http::serve_config(
        &glt,
        listener,
        ServerConfig::default(),
        Arc::new(handler(Arc::clone(&routes), fault)),
    )
    .map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr();
    let mut inst = Instance {
        glt,
        server,
        addr,
        routes,
        conns: Vec::new(),
        mode,
        seed,
        requests: 0,
    };
    // Set-up ends with the first answer on every connection; the rest
    // of the warm-up runs untimed before the first measured op.
    let mut warm = rng::Rng::new(seed, 0x3A3A);
    let mut first_op = None;
    if mode == Mode::Closed {
        for _ in 0..conns {
            inst.conns
                .push(connect(addr).map_err(|e| format!("connect: {e}"))?);
        }
    }
    for _ in 0..WARM_REQUESTS {
        if mode == Mode::Closed {
            for conn in &mut inst.conns {
                let k = warm.below(ROUTE_SIZES.len() as u64) as usize;
                exchange(conn, &inst.routes, k, false)
                    .map_err(|e| format!("warm-up request failed: {e}"))?
                    .map_err(|m| format!("warm-up: {m}"))?;
            }
        } else {
            let k = warm.below(ROUTE_SIZES.len() as u64) as usize;
            let mut conn = connect(addr).map_err(|e| format!("connect: {e}"))?;
            exchange(&mut conn, &inst.routes, k, true)
                .map_err(|e| format!("warm-up request failed: {e}"))?
                .map_err(|m| format!("warm-up: {m}"))?;
            drain_to_eof(&mut conn);
        }
        first_op.get_or_insert_with(|| t0.elapsed());
    }
    Ok((
        inst,
        Setup {
            build,
            total: first_op.expect("WARM_REQUESTS > 0"),
        },
    ))
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(s)
}

/// Timestamps of one request/response exchange.
struct Exchange {
    written: Instant,
    first_byte: Instant,
    done: Instant,
}

/// Send route `k`'s request and read the full response. The outer
/// `Result` is the transport (a failed request); the inner one the
/// content check (`Err` = wrong bytes, `Ok(None)` = a `503` shed).
fn exchange(
    conn: &mut TcpStream,
    routes: &Routes,
    k: usize,
    close: bool,
) -> io::Result<Result<Option<Exchange>, String>> {
    conn.write_all(&Routes::request(k, close))?;
    let written = Instant::now();
    let mut buf: Vec<u8> = Vec::with_capacity(ROUTE_SIZES[k] + 128);
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte = None;
    let mut head: Option<(usize, usize)> = None;
    loop {
        if let Some((head_end, len)) = head {
            if buf.len() >= head_end + len {
                break;
            }
        }
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        first_byte.get_or_insert_with(Instant::now);
        let searched = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        if head.is_none() {
            if let Some(pos) = buf[searched..].windows(4).position(|w| w == b"\r\n\r\n") {
                let head_end = searched + pos + 4;
                match parse_head(&buf[..head_end]) {
                    Ok(h) => head = Some((head_end, h.1)),
                    Err(m) => return Ok(Err(m)),
                }
            }
        }
    }
    let done = Instant::now();
    let (head_end, len) = head.expect("loop exits only with a parsed head");
    let status = parse_head(&buf[..head_end]).map(|h| h.0);
    let exchange = Exchange {
        written,
        first_byte: first_byte.expect("a head was read"),
        done,
    };
    Ok(match status {
        Ok(503) => Ok(None),
        Ok(200) if buf.len() == head_end + len && buf[head_end..] == routes.bodies[k][..] => {
            Ok(Some(exchange))
        }
        Ok(200) => Err(format!(
            "route /r{k}: body of {} bytes differs from the expected {} bytes",
            buf.len() - head_end,
            routes.bodies[k].len()
        )),
        Ok(s) => Err(format!("route /r{k}: status {s}, expected 200")),
        Err(m) => Err(m),
    })
}

/// Status code and `Content-Length` of a response head.
fn parse_head(head: &[u8]) -> Result<(u16, usize), String> {
    let text = std::str::from_utf8(head).map_err(|_| "response head is not UTF-8".to_string())?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line in {text:?}"))?;
    let len = lines
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .ok_or_else(|| format!("no Content-Length in {text:?}"))?;
    Ok((status, len))
}

/// Read until the server closes, so the server side closes first.
fn drain_to_eof(conn: &mut TcpStream) {
    let mut sink = [0u8; 512];
    while matches!(conn.read(&mut sink), Ok(n) if n > 0) {}
}

/// What one generator thread saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    late_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    ok: u64,
    cpu: Duration,
    /// Closed loop: the connection, handed back for the next window.
    conn: Option<TcpStream>,
}

impl ClientLog {
    /// A request that finished at `done` (window start `t0`); `lat`
    /// is `None` for a failed one, which misses every latency limit.
    fn push(&mut self, t0: Instant, done: Instant, lat: Option<Duration>) {
        self.samples.push(Sample {
            at_ns: ns(done.saturating_duration_since(t0)),
            lat_ns: lat.map_or(u64::MAX, ns),
            ops: u64::from(lat.is_some()),
        });
        match lat {
            Some(_) => self.ok += 1,
            None => self.failed += 1,
        }
    }
}

/// Record a request's spans: the root from `root` (send time, or due
/// time in the open loop) and the write from `sent`.
fn record_exchange(span: u64, unit: u64, root: Instant, sent: Instant, ex: &Exchange) {
    if span == 0 {
        return;
    }
    trace::record("client.request", span, 0, unit, root, ex.done);
    trace::record(
        "client.write",
        trace::new_id(),
        span,
        unit,
        sent,
        ex.written,
    );
    trace::record(
        "client.ttfb",
        trace::new_id(),
        span,
        unit,
        ex.written,
        ex.first_byte,
    );
    trace::record(
        "client.read",
        trace::new_id(),
        span,
        unit,
        ex.first_byte,
        ex.done,
    );
}

/// The Poisson arrival schedule, shared by the generator threads so
/// the sequence of (due time, route) is a function of the seed alone.
struct Schedule {
    rng: rng::Rng,
    next_due: f64,
    rate: f64,
}

impl Schedule {
    fn next(&mut self) -> (Duration, usize) {
        let due = self.next_due;
        self.next_due += -self.rng.unit().ln() / self.rate;
        let k = self.rng.below(ROUTE_SIZES.len() as u64) as usize;
        (Duration::from_secs_f64(due), k)
    }
}

impl Instance {
    /// Drive traffic for `window` from `threads` generator threads.
    ///
    /// # Errors
    ///
    /// A response with the wrong status or bytes.
    pub fn run(&mut self, window: Duration, threads: usize) -> Result<Segment, String> {
        let proc0 = sys::process_cpu();
        let t0 = Instant::now();
        let next_unit = AtomicU64::new(self.requests);
        let logs: Vec<Result<ClientLog, String>> = match self.mode {
            Mode::Closed => {
                let conns = std::mem::take(&mut self.conns);
                std::thread::scope(|s| {
                    let handles: Vec<_> = conns
                        .into_iter()
                        .enumerate()
                        .map(|(c, conn)| {
                            let mut r = rng::Rng::new(self.seed, 0xC11E + c as u64);
                            let (addr, routes, next_unit) = (self.addr, &*self.routes, &next_unit);
                            s.spawn(move || {
                                closed_client(conn, addr, routes, &mut r, next_unit, t0, window)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("generator thread panicked"))
                        .collect()
                })
            }
            Mode::Open { rate } => {
                let schedule = Mutex::new(Schedule {
                    rng: rng::Rng::new(self.seed, 0x0BE7 + self.requests),
                    next_due: 0.0,
                    rate,
                });
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            let (addr, routes, next_unit, schedule) =
                                (self.addr, &*self.routes, &next_unit, &schedule);
                            s.spawn(move || {
                                open_client(addr, routes, schedule, next_unit, t0, window)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("generator thread panicked"))
                        .collect()
                })
            }
        };
        // Open loop: until the last answer, so a backlog lowers the rate.
        let elapsed = t0.elapsed();
        let proc_cpu = sys::process_cpu() - proc0;
        self.requests = next_unit.load(Ordering::Relaxed);
        let mut seg = Segment {
            ops: 0,
            attempted: 0,
            failed: 0,
            elapsed,
            samples: Vec::new(),
            late_ns: Vec::new(),
            gen_cpu: Duration::ZERO,
            proc_cpu,
        };
        for log in logs {
            let mut log = log?;
            self.conns.extend(log.conn.take());
            seg.ops += log.ok;
            seg.attempted += log.attempted;
            seg.failed += log.failed;
            seg.samples.extend(log.samples);
            seg.late_ns.extend(log.late_ns);
            seg.gen_cpu += log.cpu;
        }
        Ok(seg)
    }

    /// Close the generator's connections, drain the server and
    /// finalize the runtime; how long `Glt::finalize` took.
    ///
    /// # Errors
    ///
    /// The runtime reported stragglers.
    pub fn finish(self) -> Result<Duration, String> {
        drop(self.conns);
        self.server.shutdown_within(Duration::from_secs(2));
        let t0 = Instant::now();
        self.glt
            .finalize()
            .map_err(|e| format!("server finalize: {e}"))?;
        Ok(t0.elapsed())
    }
}

fn closed_client(
    mut conn: TcpStream,
    addr: SocketAddr,
    routes: &Routes,
    r: &mut rng::Rng,
    next_unit: &AtomicU64,
    t0: Instant,
    window: Duration,
) -> Result<ClientLog, String> {
    let cpu0 = sys::thread_cpu();
    let mut log = ClientLog::default();
    while t0.elapsed() < window {
        let k = r.below(ROUTE_SIZES.len() as u64) as usize;
        let unit = next_unit.fetch_add(1, Ordering::Relaxed);
        let span = trace::new_id();
        log.attempted += 1;
        let start = Instant::now();
        match exchange(&mut conn, routes, k, false) {
            Ok(Ok(Some(ex))) => {
                record_exchange(span, unit, start, start, &ex);
                log.push(t0, ex.done, Some(ex.done - start));
            }
            Ok(Ok(None)) => log.push(t0, Instant::now(), None),
            Ok(Err(m)) => return Err(m),
            Err(_) => {
                log.push(t0, Instant::now(), None);
                // The connection is in an unknown state: replace it.
                match connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        }
    }
    log.cpu = sys::thread_cpu() - cpu0;
    log.conn = Some(conn);
    Ok(log)
}

fn open_client(
    addr: SocketAddr,
    routes: &Routes,
    schedule: &Mutex<Schedule>,
    next_unit: &AtomicU64,
    t0: Instant,
    window: Duration,
) -> Result<ClientLog, String> {
    let cpu0 = sys::thread_cpu();
    let mut log = ClientLog::default();
    loop {
        let (due, k) = schedule.lock().expect("schedule lock poisoned").next();
        if due >= window {
            break;
        }
        let due = t0 + due;
        let now = Instant::now();
        // A thread that was idle at the due time sleeps until then;
        // its wake-up delay is the generator's, not the server's, so
        // the request is timed from its send. A thread still busy at
        // the due time (every connection in flight) times it from
        // the due time, so a server stall counts against every
        // request queued behind it.
        let idle = due > now;
        if idle {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        let origin = if idle { start } else { due };
        let unit = next_unit.fetch_add(1, Ordering::Relaxed);
        let span = trace::new_id();
        log.attempted += 1;
        log.late_ns.push(ns(start - due));
        let outcome = connect(addr).and_then(|mut conn| {
            let connected = Instant::now();
            let out = exchange(&mut conn, routes, k, true)?;
            drain_to_eof(&mut conn);
            Ok((connected, out))
        });
        match outcome {
            Ok((connected, Ok(Some(ex)))) => {
                if span != 0 {
                    record_exchange(span, unit, origin, connected, &ex);
                    trace::record(
                        "client.connect",
                        trace::new_id(),
                        span,
                        unit,
                        start,
                        connected,
                    );
                    trace::record("loadgen.late", trace::new_id(), span, unit, due, start);
                }
                log.push(t0, ex.done, Some(ex.done - origin));
            }
            Ok((_, Ok(None))) | Err(_) => log.push(t0, Instant::now(), None),
            Ok((_, Err(m))) => return Err(m),
        }
    }
    log.cpu = sys::thread_cpu() - cpu0;
    Ok(log)
}
