//! E20 — pass-aligned, non-blocking admission under sustained load:
//! queue-wait percentiles.
//!
//! Not a paper artifact: this experiment measures the serving layer's
//! admission pipeline. The scheduler drains arrivals *while the
//! fan-out runs* and splices them into the in-flight scan at its
//! boundary: the joiner's first logical pass rides the scan that was
//! running when it arrived (pass-aligned: the group may be on its
//! pass 5 — the splice is still exact), its queue wait collapses to
//! the drain latency, and it retires one epoch earlier than it would
//! waiting for the next epoch boundary.
//!
//! One closed-loop sustained workload runs against a wide repository
//! (many sets over a small universe, so the scan fan-out dominates
//! every epoch): a few client threads, each
//! resubmitting its next distinct `iter` query after a short
//! deterministic think time, with one δ per client so completions
//! desynchronise — arrivals land at arbitrary phases of the in-flight
//! epochs, no pacing calibration needed. Everything structural
//! (queries, jobs — every query runs, none repeat) is deterministic
//! and gated by `repro --check`; the join counts and every timing
//! column are load-dependent and excluded. The headline number,
//! recorded in `BENCH_admission.json`: a drain-scale (microsecond)
//! queue-wait p50 with covers/passes/space bit-identical per query —
//! `service_equivalence` and the `alignment` suite pin the
//! bit-identity claim.

use crate::{Scale, Table};
use sc_service::{QuerySpec, ServiceBuilder, ServiceConfig, ServiceMetrics};
use sc_setsystem::SetSystem;
use sc_setsystem::{gen, Instance};

/// Per-client δ values: distinct pass/space trade-offs desynchronise
/// the clients' completion times, so resubmissions land at arbitrary
/// points of the group's epochs instead of marching in lockstep.
const DELTAS: [f64; 4] = [0.5, 0.7, 0.85, 1.0];

/// One worker keeps the scan phase of each epoch long and serial —
/// the regime where a mid-scan arrival's wait is most visible and the
/// drain has the most scan to splice into (fine shards give it a drain
/// point every few sets). Observables are identical at any worker
/// count or shard size.
fn load_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        shard_size: 64,
        ..Default::default()
    }
}

/// Closed-loop sustained load: `clients` threads, each submitting its
/// next (distinct-seed, per-client-δ) query after a short
/// deterministic think time — so the group never drains while the run
/// lasts, and arrivals land at arbitrary phases of the in-flight
/// epochs: exactly the arrivals the splice serves (instead of making
/// them wait out the scan).
fn run_load(system: &SetSystem, clients: usize, per_client: usize) -> ServiceMetrics {
    let queries = clients * per_client;
    let service = ServiceBuilder::new()
        .config(load_config())
        .tenant("default", system.clone())
        .build();
    let ((), metrics) = service.serve(|handle| {
        std::thread::scope(|s| {
            for c in 0..clients as u64 {
                let handle = handle.clone();
                s.spawn(move || {
                    for q in 0..per_client as u64 {
                        // Deterministic per-query think time (0–8 ms)
                        // decorrelates arrivals from epoch boundaries.
                        std::thread::sleep(std::time::Duration::from_millis((c * 7 + q * 5) % 9));
                        let outcome = handle
                            .submit(QuerySpec::IterCover {
                                delta: DELTAS[(c as usize) % DELTAS.len()],
                                seed: c * 1000 + q,
                            })
                            .expect("open")
                            .wait()
                            .expect("served");
                        assert!(outcome.goal_met());
                    }
                });
            }
        });
    });
    assert_eq!(metrics.jobs, queries, "distinct seeds: every query runs");
    assert_eq!(metrics.queries_completed, queries);
    metrics
}

fn row_cells(mode: &str, queries: usize, metrics: &ServiceMetrics) -> Vec<String> {
    vec![
        mode.into(),
        queries.to_string(),
        metrics.jobs.to_string(),
        metrics.mid_stream_admissions.to_string(),
        metrics.aligned_joins.to_string(),
        format!("{:.2}", metrics.queue_wait.percentile_us(50.0) as f64 / 1e3),
        format!("{:.2}", metrics.queue_wait.percentile_us(99.0) as f64 / 1e3),
        format!("{:.1}", metrics.latency.percentile_us(50.0) as f64 / 1e3),
        format!(
            "{:.1}",
            queries as f64 / metrics.elapsed.as_secs_f64().max(1e-9)
        ),
    ]
}

/// Runs the sustained stream and tabulates its queue-wait percentiles.
pub fn admission(scale: Scale) -> Table {
    let mut table = Table::new(
        "E20 — pass-aligned non-blocking admission: queue wait under sustained load",
        &[
            "mode",
            "queries",
            "jobs",
            "mid-stream joins",
            "aligned joins",
            "wait p50 ms",
            "wait p99 ms",
            "p50 ms",
            "qps",
        ],
    );
    // A wide repository (many sets over a small universe) makes the
    // scan fan-out the bulk of every epoch — the phase an arrival
    // splices into instead of waiting it out.
    let (n, m, k) = scale.pick((1 << 9, 1 << 14, 8), (1 << 10, 1 << 15, 16));
    let (clients, per_client) = scale.pick((4, 8), (4, 12));
    let queries = clients * per_client;
    let inst: Instance = gen::planted(n, m, k, 42);

    let aligned = run_load(&inst.system, clients, per_client);
    table.row(row_cells("aligned", queries, &aligned));
    assert!(
        aligned.mid_stream_admissions >= 1,
        "sustained load must exercise the splice path"
    );

    table.note(format!(
        "planted n={n}, m={m}, k={k}; {clients} closed-loop clients × {per_client} distinct iter queries each (δ per client from {DELTAS:?}, 0–8 ms think time), single worker",
    ));
    table.note(
        "aligned: a mid-scan arrival is drained during the fan-out and spliced into the in-flight scan (queue wait = drain latency, one epoch saved)",
    );
    table.note(
        "aligned joins = splices into a group past its first scan (pass-2 joins pass-2); covers/passes/space are bit-identical per query (pinned by service_equivalence + alignment tests)",
    );
    table.note("join counts and timing columns (wait …, … ms, qps) are load-dependent; repro --check skips them");
    table
}
