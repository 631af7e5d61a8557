//! In-memory spans for the traced run, written out when it ends.
//!
//! Spans are recorded at the boundaries the benchmark itself calls
//! through; nothing is traced inside the server. A query is one trace:
//!
//! ```text
//! request            due → reply
//! ├─ loadgen.lag     due → sent (open loop, when the sender ran late)
//! └─ net.round_trip  sent → reply; its self time is the front door
//!    └─ service.server      the reply's `us`
//!       ├─ service.queue_wait   the reply's `wait_us`
//!       └─ service.exec         `us − wait_us`
//! ```
//!
//! The server reports durations, not timestamps, so `service.server`
//! is placed in the middle of the round trip. In-process calls
//! (`protocol.parse`, `core.solo`, `setsystem.load_path`, …) and control
//! round trips (`telemetry.scrape`, `tenants.reload`) are traces of one
//! span each.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::reply::QueryReply;

/// One span: `trace` groups the spans of one request, `parent` indexes
/// the causing span within it.
pub struct Span {
    pub trace: u64,
    pub id: u8,
    pub parent: Option<u8>,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// The spans one connection (or the in-process phase) recorded.
#[derive(Default)]
pub struct Spans {
    enabled: bool,
    traces: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            ..Spans::default()
        }
    }

    fn next_trace(&mut self) -> u64 {
        self.traces += 1;
        self.traces
    }

    fn push(
        &mut self,
        trace: u64,
        id: u8,
        parent: Option<u8>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start,
            end,
        });
    }

    /// Records one answered query.
    pub fn request(&mut self, due: Instant, sent: Instant, recv: Instant, reply: &QueryReply) {
        if !self.enabled {
            return;
        }
        let trace = self.next_trace();
        self.push(trace, 0, None, "request", due, recv);
        if sent > due {
            self.push(trace, 1, Some(0), "loadgen.lag", due, sent);
        }
        self.push(trace, 2, Some(0), "net.round_trip", sent, recv);
        let server = Duration::from_micros(reply.us).min(recv - sent);
        let wait = Duration::from_micros(reply.wait_us).min(server);
        let start = sent + (recv - sent - server) / 2;
        self.push(trace, 3, Some(2), "service.server", start, start + server);
        self.push(trace, 4, Some(3), "service.queue_wait", start, start + wait);
        self.push(
            trace,
            5,
            Some(3),
            "service.exec",
            start + wait,
            start + server,
        );
    }

    /// Records one operation that is a trace of its own.
    pub fn op(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let trace = self.next_trace();
            self.push(trace, 0, None, name, start, end);
        }
    }
}

/// Renders every span as one JSON object per line. `streams` are the
/// recorders of the run, numbered so trace ids stay unique; times are
/// µs since `origin`.
pub fn render(origin: Instant, streams: &[&Spans]) -> String {
    let mut out = String::new();
    for (stream, spans) in streams.iter().enumerate() {
        for s in &spans.spans {
            let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace\": \"{stream}.{}\", \"span\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.trace,
                s.id,
                s.name,
                us(s.start),
                us(s.end),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reply::parse_query_reply;

    #[test]
    fn a_request_splits_into_front_door_queue_wait_and_exec() {
        let reply = parse_query_reply(
            "ok id=1 kind=iter sol=3 covered=8/8 passes=2 space=9 epochs=2 wait_us=1000 us=3000 cached=0 coal=0 gen=1 repo=default",
        )
        .unwrap();
        let due = Instant::now();
        let sent = due + Duration::from_millis(1);
        let recv = sent + Duration::from_millis(5);
        let mut spans = Spans::new(true);
        spans.request(due, sent, recv, &reply);
        let by = |name: &str| spans.spans.iter().find(|s| s.name == name).unwrap();
        let ms = |s: &Span| (s.end - s.start).as_secs_f64() * 1e3;
        assert!((ms(by("request")) - 6.0).abs() < 1e-9);
        assert!((ms(by("loadgen.lag")) - 1.0).abs() < 1e-9);
        assert!((ms(by("service.server")) - 3.0).abs() < 1e-9);
        assert!((ms(by("service.queue_wait")) - 1.0).abs() < 1e-9);
        assert!((ms(by("service.exec")) - 2.0).abs() < 1e-9);
        // The server span sits inside the round trip, centred.
        assert_eq!(by("service.server").start, sent + Duration::from_millis(1));
        assert_eq!(by("service.exec").parent, Some(3));
        assert!(spans.spans.iter().all(|s| s.trace == 1));

        let mut off = Spans::new(false);
        off.request(due, sent, recv, &reply);
        off.op("core.solo", due, recv);
        assert!(off.spans.is_empty());
        let text = render(due, &[&spans]);
        assert_eq!(text.lines().count(), 6);
        assert!(text.contains("\"name\": \"service.exec\""));
    }
}
