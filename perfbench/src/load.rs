//! The load generator: open-loop query connections plus the sequential
//! control connection (reference queries, cold-tenant probes,
//! `!metrics` scrapes and `!reload`s).
//!
//! Every connection pipelines request lines and matches replies to
//! requests in order (the server answers each connection in request
//! order). Every reply is checked against its [`Expect`] on arrival.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::linux::net::TcpStreamExt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::reply::{self, QueryReply};
use crate::trace::Spans;

/// A stalled connection fails the run after this long without a byte.
const STALL: Duration = Duration::from_secs(30);

/// The socket timeout used for any wait longer than itself.
const LONG_WAIT: Duration = Duration::from_secs(1);

/// How often the control connection sends a cold-tenant probe (one at
/// a time: a slow reply delays the next).
const PROBE_PERIOD: Duration = Duration::from_millis(25);

/// Request lines kept per connection for the in-process parse timing.
const KEEP_LINES: usize = 4096;

/// The run's time line, shared by every connection.
#[derive(Clone, Copy)]
pub struct Clock {
    /// Load starts (warm-up begins).
    pub start: Instant,
    /// The measured window opens.
    pub warm: Instant,
    /// The measured window closes; no request is sent after it.
    pub stop: Instant,
}

impl Clock {
    /// `true` when `t` falls in the measured window.
    pub fn in_window(&self, t: Instant) -> bool {
        t >= self.warm && t < self.stop
    }
}

/// What a correct reply to one query looks like.
#[derive(Clone, Debug)]
pub struct Expect {
    pub kind: &'static str,
    pub repo: String,
    /// Elements the reply must report covered (`n` for a full cover).
    pub required: usize,
    /// The solo run's `(sol, passes, space)` for a reference spec.
    pub solo: Option<(usize, usize, usize)>,
}

/// One request line with its expectation.
pub struct Request {
    pub line: String,
    pub expect: Expect,
}

/// Checks one reply line against its expectation.
pub fn check(line: &str, expect: &Expect) -> Result<QueryReply, String> {
    let r = reply::parse_query_reply(line)?;
    if !r.ok || r.covered < r.required {
        return Err(format!("coverage goal missed: {}", line.trim_end()));
    }
    if r.kind != expect.kind || r.repo != expect.repo || r.required != expect.required {
        return Err(format!(
            "reply does not answer {} on {} (required {}): {}",
            expect.kind,
            expect.repo,
            expect.required,
            line.trim_end()
        ));
    }
    if expect.kind == "iter" && r.covered != r.required {
        return Err(format!("full cover overshoots n: {}", line.trim_end()));
    }
    if let Some(solo) = expect.solo {
        if (r.sol, r.passes, r.space) != solo {
            return Err(format!(
                "differs from the solo run (sol, passes, space) = {solo:?}: {}",
                line.trim_end()
            ));
        }
    }
    Ok(r)
}

/// One answered query.
pub struct Sample {
    /// When the request was due (its send time on the sequential
    /// control connection).
    pub due: Instant,
    pub sent: Instant,
    pub recv: Instant,
    pub reply: QueryReply,
}

impl Sample {
    /// Round trip in ms, from the due time.
    pub fn rtt_ms(&self) -> f64 {
        (self.recv - self.due).as_secs_f64() * 1e3
    }

    /// Client round trip minus the server's own `us`, in ms.
    pub fn frontdoor_ms(&self) -> f64 {
        ((self.recv - self.sent).as_secs_f64() * 1e3 - self.reply.us as f64 / 1e3).max(0.0)
    }
}

/// What one connection did.
#[derive(Default)]
pub struct ConnLog {
    pub samples: Vec<Sample>,
    /// Requests sent (query lines only).
    pub sent: u64,
    /// Replies that were refused, failed or wrong.
    pub errors: Vec<String>,
    /// Sender lag behind the schedule of requests due in the window, ms.
    pub lag_ms: Vec<f64>,
    /// The first request lines sent, for the parse timing.
    pub lines: Vec<String>,
    pub spans: Spans,
}

impl ConnLog {
    fn record(&mut self, line: &str, expect: &Expect, due: Instant, sent: Instant, recv: Instant) {
        match check(line, expect) {
            Ok(reply) => {
                self.spans.request(due, sent, recv, &reply);
                self.samples.push(Sample {
                    due,
                    sent,
                    recv,
                    reply,
                });
            }
            Err(e) => self.errors.push(e),
        }
    }

    fn keep(&mut self, line: &str) {
        self.sent += 1;
        if self.lines.len() < KEEP_LINES {
            self.lines.push(line.trim_end().to_string());
        }
    }
}

/// A line-framed client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    timeout: Option<Duration>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_quickack(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            timeout: None,
        })
    }

    pub fn send(&mut self, text: &str) -> Result<(), String> {
        self.stream
            .write_all(text.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Appends the complete lines already buffered, or else the first
    /// ones to arrive within `wait`, to `out`; returns with none when
    /// `wait` passes first.
    pub fn read_lines(&mut self, wait: Duration, out: &mut Vec<String>) -> Result<(), String> {
        let deadline = Instant::now() + wait;
        let mut chunk = [0u8; 1 << 16];
        while !self.take_lines(out) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Long waits reuse one fixed socket timeout (no syscall per
            // read); short waits set theirs exactly.
            let left = deadline - now;
            let timeout = Some(if left > LONG_WAIT {
                LONG_WAIT
            } else {
                left.max(Duration::from_micros(50))
            });
            if self.timeout != timeout {
                self.stream
                    .set_read_timeout(timeout)
                    .map_err(|e| e.to_string())?;
                self.timeout = timeout;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    // The server writes without TCP_NODELAY, so a reply
                    // queued behind an unacknowledged one waits for our
                    // ACK; acknowledge at once (Linux drops quick-ack
                    // mode on its own, so re-arm it after every read)
                    // rather than measure the delayed-ACK timer.
                    self.stream.set_quickack(true).map_err(|e| e.to_string())?;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        Ok(())
    }

    fn take_lines(&mut self, out: &mut Vec<String>) -> bool {
        let Some(last) = self.buf.iter().rposition(|&b| b == b'\n') else {
            return false;
        };
        let text = String::from_utf8_lossy(&self.buf[..last]).into_owned();
        out.extend(text.split('\n').map(str::to_string));
        self.buf.drain(..=last);
        true
    }

    /// One sequential round trip: sends `line` and returns the reply's
    /// lines (a `!metrics` header plus its body, otherwise one line).
    pub fn round_trip(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.send(line)?;
        let mut lines: Vec<String> = Vec::new();
        let deadline = Instant::now() + STALL;
        loop {
            let want = match lines.first() {
                Some(header) => 1 + reply::metrics_len(header).unwrap_or(0),
                None => 1,
            };
            if lines.len() >= want {
                if lines.len() > want {
                    return Err(format!("unexpected extra reply lines after {line:?}"));
                }
                return Ok(lines);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("no reply to {:?}", line.trim_end()));
            }
            self.read_lines(deadline - now, &mut lines)?;
        }
    }
}

/// An open loop's schedule: request `i` is due at
/// `clock.start + offset + i·period`, and at most `cap` requests are in
/// flight.
pub struct Pace {
    pub period: Duration,
    pub offset: Duration,
    pub cap: usize,
}

/// An open loop: sends each request when it is due whether or not
/// earlier replies arrived, until the window closes; then drains.
/// Latency counts from the due time. With `pace.cap` requests in flight
/// the sender waits (and its lag grows): the server's per-tenant
/// submission queue is bounded, so an unbounded backlog during a stall
/// would turn into `busy` refusals. A sender thread sleeps to each due
/// time (socket read timeouts are too coarse to pace it) while this
/// thread reads the replies.
pub fn open_loop(
    addr: &str,
    pace: Pace,
    next: &mut (dyn FnMut() -> Request + Send),
    clock: Clock,
    tracing: bool,
) -> Result<ConnLog, String> {
    let mut conn = Conn::connect(addr)?;
    let mut writer = conn.stream.try_clone().map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel::<(Expect, Instant, Instant)>();
    let answered = AtomicU64::new(0);
    let reading = AtomicBool::new(true);
    std::thread::scope(|s| {
        let (answered, reading) = (&answered, &reading);
        let sender = s.spawn(move || -> Result<ConnLog, String> {
            let mut log = ConnLog::default();
            let mut due = clock.start + pace.offset;
            while due < clock.stop {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                while log.sent - answered.load(Ordering::Relaxed) >= pace.cap as u64 {
                    if !reading.load(Ordering::Relaxed) {
                        return Err("the reply reader stopped".into());
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                let r = next();
                let sent = Instant::now();
                log.keep(&r.line);
                if clock.in_window(due) {
                    log.lag_ms.push((sent - due).as_secs_f64() * 1e3);
                }
                // Queued before it is written, so the reply always
                // finds it.
                tx.send((r.expect, due, sent))
                    .map_err(|_| "the reply reader stopped".to_string())?;
                writer
                    .write_all(r.line.as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                due += pace.period;
            }
            Ok(log)
        });
        let read = read_replies(&mut conn, &rx, answered, tracing);
        // Unblocks a sender waiting on the cap or the channel.
        reading.store(false, Ordering::Relaxed);
        drop(rx);
        let sent = sender
            .join()
            .map_err(|_| "the sender panicked".to_string())?;
        let mut log = read?;
        let sent = sent?;
        log.sent = sent.sent;
        log.lines = sent.lines;
        log.lag_ms = sent.lag_ms;
        Ok(log)
    })
}

/// The reply side of [`open_loop`]: matches replies to the requests the
/// sender queued on `rx`, in order, until the sender is done and every
/// request is answered.
fn read_replies(
    conn: &mut Conn,
    rx: &mpsc::Receiver<(Expect, Instant, Instant)>,
    answered: &AtomicU64,
    tracing: bool,
) -> Result<ConnLog, String> {
    let mut log = ConnLog {
        spans: Spans::new(tracing),
        ..ConnLog::default()
    };
    let mut pending = VecDeque::new();
    let mut lines = Vec::new();
    let mut idle_since = Instant::now();
    loop {
        let sender_done = loop {
            match rx.try_recv() {
                Ok(request) => pending.push_back(request),
                Err(mpsc::TryRecvError::Empty) => break false,
                Err(mpsc::TryRecvError::Disconnected) => break true,
            }
        };
        if sender_done && pending.is_empty() {
            return Ok(log);
        }
        lines.clear();
        conn.read_lines(LONG_WAIT, &mut lines)?;
        let recv = Instant::now();
        if lines.is_empty() {
            if pending.is_empty() {
                idle_since = recv;
            } else if recv - idle_since > STALL {
                return Err(format!(
                    "{} requests unanswered for {STALL:?}",
                    pending.len()
                ));
            }
            continue;
        }
        idle_since = recv;
        for line in &lines {
            // A reply's request was queued before it was written.
            let (expect, due, sent) = match pending.pop_front() {
                Some(request) => request,
                None => rx
                    .recv()
                    .map_err(|_| format!("reply without a request: {line}"))?,
            };
            log.record(line, &expect, due, sent, recv);
        }
        answered.fetch_add(lines.len() as u64, Ordering::Relaxed);
    }
}

/// What the control connection does besides its cold-tenant probes.
pub struct ControlPlan {
    /// Reference queries, sent one at a time before the first probe.
    pub reference: Vec<Request>,
    /// The cold probe stream, paced at [`PROBE_PERIOD`].
    pub probe: Box<dyn FnMut() -> Request + Send>,
    /// Scrape `!metrics` this often (besides the window edges when
    /// tracing).
    pub scrape_period: Option<Duration>,
    /// `(tenant, [path A, path B], period)`: alternate the tenant
    /// between the two files this often.
    pub reload: Option<(String, [String; 2], Duration)>,
}

/// One `!metrics` scrape.
pub struct Scrape {
    pub at: Instant,
    pub rtt_ms: f64,
    pub values: BTreeMap<String, f64>,
}

/// What the control connection saw.
#[derive(Default)]
pub struct ControlLog {
    pub reference: Vec<QueryReply>,
    pub probes: ConnLog,
    pub scrapes: Vec<Scrape>,
    /// `(round trip ms, generation before, generation after)`.
    pub reloads: Vec<(f64, u64, u64)>,
}

impl ControlLog {
    /// The scrapes taken closest after the window opened and after it
    /// closed.
    pub fn window_scrapes(&self, clock: &Clock) -> Option<(&Scrape, &Scrape)> {
        let first = self.scrapes.iter().find(|s| s.at >= clock.warm)?;
        let last = self.scrapes.iter().rev().find(|s| s.at >= clock.stop)?;
        Some((first, last))
    }
}

fn scrape(conn: &mut Conn, spans: &mut Spans) -> Result<Scrape, String> {
    let at = Instant::now();
    let lines = conn.round_trip("!metrics\n")?;
    let end = Instant::now();
    spans.op("telemetry.scrape", at, end);
    Ok(Scrape {
        at,
        rtt_ms: (end - at).as_secs_f64() * 1e3,
        values: reply::parse_metrics(&lines[1..])?,
    })
}

/// The control connection: reference queries first, then the paced
/// cold probes, interleaved with scrapes and reloads, until the window
/// closes. With `tracing`, it also scrapes as the window opens and
/// closes so counter deltas cover the window.
pub fn control(
    addr: &str,
    mut plan: ControlPlan,
    clock: Clock,
    tracing: bool,
) -> Result<ControlLog, String> {
    let mut conn = Conn::connect(addr)?;
    let mut log = ControlLog {
        probes: ConnLog {
            spans: Spans::new(tracing),
            ..ConnLog::default()
        },
        ..ControlLog::default()
    };
    for r in &plan.reference {
        let lines = conn.round_trip(&r.line)?;
        log.probes.sent += 1;
        match check(&lines[0], &r.expect) {
            Ok(reply) => log.reference.push(reply),
            Err(e) => log.probes.errors.push(e),
        }
    }
    #[derive(Clone, Copy)]
    enum Action {
        Edge,
        Scrape,
        Reload,
        Probe,
    }
    let before_stop = |t: Instant| Some(t).filter(|t| *t < clock.stop);
    let mut edges: VecDeque<Instant> = if tracing {
        VecDeque::from([clock.warm, clock.stop])
    } else {
        VecDeque::new()
    };
    let mut next_probe = Instant::now().max(clock.start);
    let mut next_scrape = plan
        .scrape_period
        .and_then(|p| before_stop(clock.start + p));
    let mut next_reload = plan
        .reload
        .as_ref()
        .and_then(|(_, _, p)| before_stop(clock.warm + *p / 2));
    let mut reloads_sent = 0usize;
    // Generation 1 until the first swap.
    let mut generation = 1u64;
    loop {
        let Some((due, action)) = [
            (edges.front().copied(), Action::Edge),
            (next_scrape, Action::Scrape),
            (next_reload, Action::Reload),
            (before_stop(next_probe), Action::Probe),
        ]
        .into_iter()
        .filter_map(|(t, a)| Some((t?, a)))
        .min_by_key(|&(t, _)| t) else {
            return Ok(log);
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        match action {
            Action::Edge => {
                edges.pop_front();
                log.scrapes.push(scrape(&mut conn, &mut log.probes.spans)?);
            }
            Action::Scrape => {
                log.scrapes.push(scrape(&mut conn, &mut log.probes.spans)?);
                next_scrape = plan.scrape_period.and_then(|p| before_stop(due + p));
            }
            Action::Reload => {
                let (tenant, paths, period) = plan.reload.as_ref().expect("reload planned");
                reloads_sent += 1;
                let line = format!("!reload {tenant} {}\n", paths[reloads_sent % 2]);
                let start = Instant::now();
                let lines = conn.round_trip(&line)?;
                let end = Instant::now();
                log.probes.spans.op("tenants.reload", start, end);
                let after = reply::parse_reload(&lines[0])?;
                log.reloads
                    .push(((end - start).as_secs_f64() * 1e3, generation, after));
                generation = after;
                next_reload = before_stop(due + *period);
            }
            Action::Probe => {
                let r = (plan.probe)();
                log.probes.keep(&r.line);
                let sent = Instant::now();
                let lines = conn.round_trip(&r.line)?;
                log.probes
                    .record(&lines[0], &r.expect, sent, sent, Instant::now());
                next_probe = (next_probe + PROBE_PERIOD).max(Instant::now());
            }
        }
    }
}
