//! In-process timings of single layers, taken after the server is gone
//! so they compete with nothing. Each call is timed through the layer's
//! public entry point and recorded as one span.

use std::hint::black_box;
use std::time::{Duration, Instant};

use streaming_set_cover::bitset::BitSet;
use streaming_set_cover::offline;
use streaming_set_cover::service::protocol::{Reply, Request};
use streaming_set_cover::service::{QuerySpec, ServiceBuilder};
use streaming_set_cover::setsystem::{io as scio, SetSystem};

use crate::stats::median;
use crate::trace::Spans;
use crate::workload::{solo, Workload};

/// Repeats a timed batch until it has run this long.
const MIN_BATCH: Duration = Duration::from_millis(50);

/// Mean ns per call of `f` over `items`, cycling through them until
/// [`MIN_BATCH`] has passed.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < MIN_BATCH {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Mean ns of `Request::parse` over the workload's own request lines.
pub fn parse_ns(lines: &[String], spans: &mut Spans) -> Result<f64, String> {
    for line in lines {
        Request::parse(line).map_err(|e| format!("{line:?} does not parse: {e}"))?;
    }
    let start = Instant::now();
    let ns = mean_ns(lines, |l| {
        let _ = black_box(Request::parse(black_box(l)));
    });
    spans.op("protocol.parse", start, Instant::now());
    Ok(ns)
}

/// Mean ns of `Reply::render` over the outcomes of an in-process
/// `Service::run_batch` of `specs`.
pub fn render_ns(system: &SetSystem, specs: &[QuerySpec], spans: &mut Spans) -> f64 {
    let service = ServiceBuilder::new()
        .tenant("default", system.clone())
        .build();
    let (outcomes, _) = service.run_batch(specs);
    let replies: Vec<Reply> = outcomes.into_iter().map(Reply::Outcome).collect();
    let start = Instant::now();
    let ns = mean_ns(&replies, |r| {
        black_box(black_box(r).render());
    });
    spans.op("protocol.render", start, Instant::now());
    ns
}

/// Ms of each reference spec run solo through `sc_core`, in reference
/// order.
pub fn solo_ms(wl: &Workload, spans: &mut Spans) -> Vec<f64> {
    wl.reference
        .iter()
        .map(|r| {
            let start = Instant::now();
            black_box(solo(&r.spec, &wl.tenants[r.tenant].system));
            let end = Instant::now();
            spans.op("core.solo", start, end);
            (end - start).as_secs_f64() * 1e3
        })
        .collect()
}

/// Median ms of `sc_offline::greedy` over the whole instance.
pub fn greedy_ms(system: &SetSystem, spans: &mut Spans) -> Result<f64, String> {
    let sets = system.all_bitsets();
    let target = BitSet::full(system.universe());
    let mut times = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        black_box(offline::greedy(black_box(&sets), &target)).ok_or("instance not coverable")?;
        let end = Instant::now();
        spans.op("offline.greedy", start, end);
        times.push((end - start).as_secs_f64() * 1e3);
    }
    Ok(median(&times))
}

/// Median ms of `io::load_path` over every file the server loads at
/// boot, summed.
pub fn load_ms(paths: &[&str], spans: &mut Spans) -> Result<f64, String> {
    let mut totals = Vec::new();
    for _ in 0..3 {
        let mut total = 0.0;
        for path in paths {
            let start = Instant::now();
            black_box(scio::load_path(path)?);
            let end = Instant::now();
            spans.op("setsystem.load_path", start, end);
            total += (end - start).as_secs_f64() * 1e3;
        }
        totals.push(total);
    }
    Ok(median(&totals))
}
