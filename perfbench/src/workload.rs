//! The three workloads: their instances, server flags, request streams
//! and reference specs.
//!
//! A workload's instances are fixed (generated from the workload's own
//! constant seed), so runs with different seeds measure the same
//! repository; the run's seed draws every query seed and the request
//! mix.

use std::path::Path;
use std::time::Duration;

use streaming_set_cover::algorithms::partial::{coverage_goal, run_partial, PartialIterSetCover};
use streaming_set_cover::algorithms::{IterSetCover, IterSetCoverConfig};
use streaming_set_cover::service::protocol::Request as WireRequest;
use streaming_set_cover::service::QuerySpec;
use streaming_set_cover::setsystem::{gen, io as scio, SetSystem};
use streaming_set_cover::stream::run_reported;

use crate::load::{ControlPlan, Expect, Request};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["scan-heavy", "hot-cache", "tenants-reload"];

/// The specs every workload cycles through: three δ for the full cover,
/// one ε-partial cover.
fn cycle_spec(i: u64, seed: u64) -> QuerySpec {
    match i % 4 {
        0 => QuerySpec::IterCover { delta: 0.5, seed },
        1 => QuerySpec::IterCover { delta: 0.25, seed },
        2 => QuerySpec::IterCover { delta: 1.0, seed },
        _ => QuerySpec::PartialCover {
            epsilon: 0.1,
            delta: 0.5,
            seed,
        },
    }
}

/// Reference specs per workload (the spec cycle four times over).
const REFERENCE: usize = 16;

/// The reference specs `hot-cache` repeats.
const HOT_SET: usize = 8;

/// The request stream the control connection's probes draw from (load
/// connections are 0 and 1).
const PROBE_STREAM: u64 = 7;

/// One served repository.
pub struct Tenant {
    pub name: String,
    pub path: String,
    pub system: SetSystem,
    pub quota: Option<usize>,
}

/// A reference spec, its tenant and its solo `(sol, passes, space)`.
pub struct Reference {
    pub spec: QuerySpec,
    pub tenant: usize,
    pub solo: (usize, usize, usize),
}

pub struct Workload {
    pub name: &'static str,
    /// Load requests per second, offered on a fixed schedule (an open
    /// loop) whatever the replies do.
    pub rate: f64,
    /// Most requests in flight per load connection.
    pub cap: usize,
    /// Load connections, each with a sender and a reply-reader thread;
    /// they take turns on the schedule and take the hot tenants
    /// round-robin, as each tenant would be its own client.
    pub connections: u64,
    /// `tenants[0]` is the server's positional (`default`) repository;
    /// the last one is the cold tenant.
    pub tenants: Vec<Tenant>,
    /// Tenants that receive the load.
    pub hot: Vec<usize>,
    /// Share of load queries drawn from the reference specs (the rest
    /// are fresh).
    pub hot_share: f64,
    /// How many specs of the cycle fresh load queries walk through. The
    /// solver workloads send one: a mix of fast and slow specs puts the
    /// latency percentiles on the edge between two modes, where they
    /// jump from run to run.
    pub load_specs: u64,
    pub reference: Vec<Reference>,
    /// `(tenant, second file)`: the control connection alternates the
    /// tenant between its own file and this one.
    pub reload: Option<(usize, String)>,
    pub scrape_period: Option<Duration>,
    pub seed: u64,
}

/// SplitMix64: the benchmark's only random source.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `(sol, passes, space)` of `spec` run solo through `sc_core`.
pub fn solo(spec: &QuerySpec, system: &SetSystem) -> (usize, usize, usize) {
    match *spec {
        QuerySpec::IterCover { delta, seed } => {
            let mut alg = IterSetCover::new(IterSetCoverConfig {
                delta,
                seed,
                ..Default::default()
            });
            let r = run_reported(&mut alg, system);
            (r.cover.len(), r.passes, r.space_words)
        }
        QuerySpec::PartialCover {
            epsilon,
            delta,
            seed,
        } => {
            let mut alg = PartialIterSetCover::new(IterSetCoverConfig {
                delta,
                seed,
                ..Default::default()
            });
            let r = run_partial(&mut alg, system, epsilon);
            (r.cover.len(), r.passes, r.space_words)
        }
        QuerySpec::GreedyBaseline => unreachable!("the workloads send no greedy queries"),
    }
}

/// Elements a reply to `spec` must report covered.
fn required(spec: &QuerySpec, n: usize) -> usize {
    match *spec {
        QuerySpec::PartialCover { epsilon, .. } => coverage_goal(n, epsilon),
        _ => n,
    }
}

impl Workload {
    /// Generates the workload's instances into `dir` and solves its
    /// reference specs solo.
    pub fn build(name: &str, seed: u64, dir: &Path) -> Result<Workload, String> {
        let mut instance_seed = Rng::new(
            name.bytes()
                .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b))),
        );
        let mut files = 0;
        let mut tenant = |name: &str, n: usize, m: usize, k: usize, quota: Option<usize>| {
            let inst = gen::planted(n, m, k, instance_seed.next_u64());
            files += 1;
            let path = dir.join(format!("{files}-{name}.sc"));
            let text = scio::to_string(&inst);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok::<Tenant, String>(Tenant {
                name: name.to_string(),
                path: path.to_string_lossy().into_owned(),
                system: inst.system,
                quota,
            })
        };
        // Sizes and offered rates are explained in perfbench/README.md.
        let mut w = match name {
            "scan-heavy" => Workload {
                name: "scan-heavy",
                rate: 8.0,
                cap: 4,
                connections: 2,
                tenants: vec![
                    tenant("default", 4096, 8192, 16, None)?,
                    tenant("cold", 256, 512, 8, None)?,
                ],
                hot: vec![0],
                hot_share: 0.0,
                load_specs: 1,
                reference: Vec::new(),
                reload: None,
                scrape_period: None,
                seed,
            },
            "hot-cache" => Workload {
                name: "hot-cache",
                rate: 3000.0,
                cap: 32,
                connections: 2,
                tenants: vec![
                    tenant("default", 256, 512, 8, None)?,
                    tenant("cold", 256, 512, 8, None)?,
                ],
                hot: vec![0],
                hot_share: 0.95,
                load_specs: 4,
                reference: Vec::new(),
                reload: None,
                scrape_period: None,
                seed,
            },
            "tenants-reload" => {
                let mut tenants = vec![tenant("default", 1024, 2048, 16, Some(1))?];
                for t in 1..4 {
                    tenants.push(tenant(&format!("hot{t}"), 1024, 2048, 16, Some(1))?);
                }
                let alt = tenant("hot3-b", 1024, 2048, 16, None)?;
                tenants.push(tenant("cold", 256, 512, 8, None)?);
                Workload {
                    name: "tenants-reload",
                    rate: 120.0,
                    cap: 32,
                    connections: 4,
                    tenants,
                    hot: vec![0, 1, 2, 3],
                    hot_share: 0.0,
                    load_specs: 1,
                    reference: Vec::new(),
                    reload: Some((3, alt.path)),
                    scrape_period: Some(Duration::from_secs(1)),
                    seed,
                }
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?} (expected one of {NAMES:?})"
                ))
            }
        };
        // The reference specs, on the tenants that are never reloaded.
        let stable: Vec<usize> = w
            .hot
            .iter()
            .copied()
            .filter(|&t| w.reload.as_ref().is_none_or(|(r, _)| *r != t))
            .collect();
        let mut query_seed = Rng::new(seed ^ 0x7e57);
        for j in 0..REFERENCE as u64 {
            let spec = cycle_spec(j, query_seed.next_u64());
            let t = stable[j as usize % stable.len()];
            let solo = solo(&spec, &w.tenants[t].system);
            w.reference.push(Reference {
                spec,
                tenant: t,
                solo,
            });
        }
        Ok(w)
    }

    /// `sctool serve` arguments (before `--listen`).
    pub fn server_args(&self, telemetry: bool) -> Vec<String> {
        let mut args = vec![self.tenants[0].path.clone()];
        for t in &self.tenants[1..] {
            args.push("--repo".into());
            args.push(format!("{}={}", t.name, t.path));
        }
        for t in &self.tenants {
            if let Some(q) = t.quota {
                args.push("--quota".into());
                args.push(format!("{}={q}", t.name));
            }
        }
        if !telemetry {
            args.push("--no-telemetry".into());
        }
        args
    }

    fn request(
        &self,
        spec: QuerySpec,
        tenant: usize,
        solo: Option<(usize, usize, usize)>,
    ) -> Request {
        let t = &self.tenants[tenant];
        // The default tenant is the connection's own; others are
        // addressed per query.
        let repo = (tenant != 0).then(|| t.name.clone());
        Request {
            line: format!("{}\n", WireRequest::Query { repo, spec }.render()),
            expect: Expect {
                kind: spec.kind(),
                repo: t.name.clone(),
                required: required(&spec, t.system.universe()),
                solo,
            },
        }
    }

    fn reference_request(&self, j: usize) -> Request {
        let r = &self.reference[j];
        self.request(r.spec, r.tenant, Some(r.solo))
    }

    /// `true` when reference spec `j` is one of the specs fresh load
    /// queries cycle through.
    pub fn is_load_spec(&self, j: usize) -> bool {
        (j as u64 % 4) < self.load_specs
    }

    /// The request stream of load connection `conn`.
    pub fn load_stream(&self, conn: u64) -> impl FnMut() -> Request + Send + '_ {
        let mut rng = Rng::new(self.seed ^ (0x5eed_0000 + conn));
        let mut i = 0u64;
        move || {
            if self.hot_share > 0.0 && rng.unit() < self.hot_share {
                return self.reference_request((rng.next_u64() % HOT_SET as u64) as usize);
            }
            // Connections take the hot tenants round-robin; each
            // connection walks the workload's part of the spec cycle.
            let tenant = self.hot[conn as usize % self.hot.len()];
            let spec = cycle_spec(i % self.load_specs, rng.next_u64());
            i += 1;
            self.request(spec, tenant, None)
        }
    }

    /// The control connection's plan: the reference specs once (when
    /// `reference`), then paced fresh probes of the cold tenant.
    pub fn control_plan(&self, reference: bool) -> ControlPlan {
        let cold = self.tenants.len() - 1;
        let cold_name = self.tenants[cold].name.clone();
        let cold_n = self.tenants[cold].system.universe();
        let mut rng = Rng::new(self.seed ^ (0x5eed_0000 + PROBE_STREAM));
        ControlPlan {
            reference: if reference {
                (0..self.reference.len())
                    .map(|j| self.reference_request(j))
                    .collect()
            } else {
                Vec::new()
            },
            probe: Box::new(move || {
                let spec = QuerySpec::IterCover {
                    delta: 0.5,
                    seed: rng.next_u64(),
                };
                Request {
                    line: format!(
                        "{}\n",
                        WireRequest::Query {
                            repo: Some(cold_name.clone()),
                            spec
                        }
                        .render()
                    ),
                    expect: Expect {
                        kind: "iter",
                        repo: cold_name.clone(),
                        required: cold_n,
                        solo: None,
                    },
                }
            }),
            scrape_period: self.scrape_period,
            reload: self.reload.as_ref().map(|(t, alt)| {
                let t = &self.tenants[*t];
                (
                    t.name.clone(),
                    [t.path.clone(), alt.clone()],
                    Duration::from_secs(1),
                )
            }),
        }
    }
}
