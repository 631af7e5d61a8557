//! `perfbench` — the end-to-end serving benchmark for `sctool serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-heavy|hot-cache|tenants-reload --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the release `sctool`,
//! generates the workload's instances, draws its queries from the seed,
//! times the server's boot, drives the workload over TCP, checks every
//! reply, and prints the metrics as the last line of stdout (one JSON
//! object). `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the traced variant
//! and reports the per-layer metrics. `--rate R` overrides the
//! workload's offered load (requests per second) for a knee sweep. See
//! `perfbench/README.md`.

mod layers;
mod load;
mod reply;
mod report;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use load::{Clock, ConnLog, ControlLog, Sample};
use report::{json_str, Report, END_TO_END, PER_LAYER};
use server::Server;
use stats::{mean, median, needed, percentile};
use streaming_set_cover::service::QuerySpec;
use trace::Spans;
use workload::Workload;

/// An untraced run's window is split into this many rounds, each on a
/// freshly booted server (whose boot gives a `setup_s` sample), and
/// every end-to-end metric is the median of its rounds: the host is a
/// shared VM whose neighbours take CPU in bursts, and the median ignores
/// the rounds they disturbed most without favouring the luckiest one.
const ROUNDS: u32 = 5;

/// Load before the first round's window opens: the reference queries,
/// then the cache fill and connection set-up every round has.
const FIRST_WARMUP: Duration = Duration::from_secs(2);

/// Warm-up of every later round, and of the traced run's telemetry A/B
/// stretches.
const WARMUP: Duration = Duration::from_secs(1);

/// Where runs keep their scratch files and traces, under the working
/// directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rate: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?.to_string();
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {:?})",
            workload::NAMES
        ));
    }
    let seconds = number("--seconds")?;
    if seconds < 4 {
        return Err("--seconds must be at least 4".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let rate = match args.iter().any(|a| a == "--rate") {
        false => None,
        true => match value("--rate")?.parse::<f64>() {
            Ok(r) if r > 0.0 && r.is_finite() => Some(r),
            _ => return Err("--rate must be a positive number".into()),
        },
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        rate,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The run's scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Requests sent and requests that failed, over every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, phase: &Phase) {
        for log in phase.logs() {
            self.attempted += log.sent;
            self.failed += log.errors.len() as u64;
            for e in log.errors.iter().take(5) {
                eprintln!("perfbench: wrong or refused: {e}");
            }
        }
    }
}

/// Returns `Ok(false)` when a reply was wrong (the result line is still
/// printed, with `"correct": false`).
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let origin = Instant::now();
    let sctool = server::build_sctool()?;
    let dir = WorkDir(Path::new(OUT_DIR).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let mut wl = Workload::build(&args.workload, args.seed, &dir.0)?;
    if let Some(rate) = args.rate {
        wl.rate = rate;
    }
    print_env(&args, wl.rate);

    let mut boots = Vec::new();
    let window = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let (report, decls) = if args.trace {
        (traced(&wl, &sctool, window, origin, &mut tally)?, PER_LAYER)
    } else {
        let mut r = untraced(&wl, &sctool, window, &mut boots, &mut tally)?;
        r.set("setup_s", median(&boots));
        (r, END_TO_END)
    };
    for &(name, unit, _) in decls {
        eprintln!(
            "perfbench: {name} = {} {unit}",
            report.get(name).unwrap_or(f64::NAN)
        );
    }
    println!(
        "{}",
        report.render(decls, tally.failed == 0, tally.attempted, tally.failed)?
    );
    Ok(tally.failed == 0)
}

/// Prints the machine and build the numbers belong to, one JSON line
/// on stdout ahead of the result.
fn print_env(args: &Args, rate: f64) {
    let output = |cmd: &str, arg: &str| {
        Command::new(cmd)
            .arg(arg)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = output(
        &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
        "--version",
    );
    // Only a checkout that is itself a git work tree names its commit.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .filter(|c| !c.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rate\": {rate}, \"nproc\": {nproc}, \"cpu\": {}, \"kernel_backend\": {}, \"rustc\": {}, \"commit\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu),
        json_str(streaming_set_cover::bitset::kernels::backend_name()),
        json_str(rustc.as_deref().unwrap_or("unknown")),
        json_str(commit.as_deref().unwrap_or("unknown")),
    );
}

/// Everything one stretch of load recorded.
struct Phase {
    clock: Clock,
    loads: Vec<ConnLog>,
    control: ControlLog,
}

impl Phase {
    fn logs(&self) -> impl Iterator<Item = &ConnLog> {
        self.loads.iter().chain([&self.control.probes])
    }

    /// Load-connection samples due inside the window.
    fn window(&self) -> impl Iterator<Item = &Sample> {
        self.loads
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| self.clock.in_window(s.due))
    }

    /// Cold-probe samples sent inside the window.
    fn probes(&self) -> impl Iterator<Item = &Sample> {
        self.control
            .probes
            .samples
            .iter()
            .filter(|s| self.clock.in_window(s.due))
    }

    /// Round trips of the window's load requests, in due-time order.
    fn rtts(&self) -> Vec<f64> {
        let mut window: Vec<&Sample> = self.window().collect();
        window.sort_by_key(|s| s.due);
        window.into_iter().map(Sample::rtt_ms).collect()
    }
}

/// Drives the workload against `addr`: its load connections plus the
/// control connection (with the reference specs first when `reference`),
/// for `warmup` then the measured `window`.
fn drive(
    wl: &Workload,
    addr: &str,
    warmup: Duration,
    window: Duration,
    reference: bool,
    tracing: bool,
) -> Result<Phase, String> {
    let start = Instant::now() + Duration::from_millis(10);
    let clock = Clock {
        start,
        warm: start + warmup,
        stop: start + warmup + window,
    };
    std::thread::scope(|s| {
        let loads: Vec<_> = (0..wl.connections)
            .map(|conn| {
                s.spawn(move || {
                    let mut next = wl.load_stream(conn);
                    // The connections take turns on one schedule.
                    let n = wl.connections as f64;
                    let period = Duration::from_secs_f64(n / wl.rate);
                    let pace = load::Pace {
                        period,
                        offset: period.mul_f64(conn as f64 / n),
                        cap: wl.cap,
                    };
                    load::open_loop(addr, pace, &mut next, clock, tracing)
                })
            })
            .collect();
        let plan = wl.control_plan(reference);
        let control = s.spawn(move || load::control(addr, plan, clock, tracing));
        let loads = loads
            .into_iter()
            .map(|h| h.join().map_err(|_| "a load thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>();
        let control = control
            .join()
            .map_err(|_| "the control thread panicked".to_string())?;
        Ok(Phase {
            clock,
            loads: loads?,
            control: control?,
        })
    })
}

/// The end-to-end metrics: [`ROUNDS`] untraced stretches of load, each
/// on its own server; each metric is the median of its rounds.
fn untraced(
    wl: &Workload,
    sctool: &Path,
    window: Duration,
    boots: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<Report, String> {
    let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); ROUND_METRICS.len()];
    let mut reference = Vec::new();
    for round in 0..ROUNDS {
        let server = Server::start(sctool, &wl.server_args(true))?;
        let boot = server.boot.as_secs_f64();
        boots.push(boot);
        let first = round == 0;
        let warmup = if first { FIRST_WARMUP } else { WARMUP };
        let phase = drive(wl, &server.addr, warmup, window / ROUNDS, first, false)?;
        let rss = server.rss_peak_mb()?;
        server.shutdown()?;
        tally.add(&phase);
        let rtts = phase.rtts();
        // Replies to the window's requests over the time they took to
        // arrive: for the open loop, the completion rate the offered
        // rate achieved.
        let last = phase
            .window()
            .map(|s| s.recv)
            .max()
            .ok_or("no replies in a round")?;
        let qps = rtts.len() as f64 / (last - phase.clock.warm).as_secs_f64();
        let lags: Vec<f64> = phase.loads.iter().flat_map(|l| l.lag_ms.clone()).collect();
        // The knee sweep in perfbench/README.md reads these lines.
        eprintln!(
            "perfbench: round {round}: boot {:.4} s, offered {:.0}/s, qps {qps:.1}, p50 {:.3} ms, p90 {:.3} ms, lag p99 {:.3} ms, {} replies",
            boot,
            wl.rate,
            percentile(&rtts, 50.0),
            percentile(&rtts, 90.0),
            percentile(&lags, 99.0),
            rtts.len(),
        );
        if rtts.len() < needed(50.0) {
            return Err(format!(
                "round {round}: {} samples do not support latency_p50_ms",
                rtts.len()
            ));
        }
        let values = [qps, percentile(&rtts, 50.0), rss];
        for (all, value) in rounds.iter_mut().zip(values) {
            all.push(value);
        }
        if first {
            reference = phase.control.reference;
        }
    }
    let mut r = Report::default();
    for (name, values) in ROUND_METRICS.iter().zip(&rounds) {
        r.set(name, median(values));
    }
    let mean_of = |f: fn(&reply::QueryReply) -> usize| {
        mean(&reference.iter().map(|q| f(q) as f64).collect::<Vec<_>>())
    };
    r.set("passes_mean", mean_of(|q| q.passes));
    r.set("space_words_mean", mean_of(|q| q.space));
    r.set("cover_size_mean", mean_of(|q| q.sol));
    Ok(r)
}

/// The end-to-end metrics each round measures, in the order `untraced`
/// collects them.
const ROUND_METRICS: [&str; 3] = ["qps", "latency_p50_ms", "server_rss_peak_mb"];

/// The per-layer metrics: a traced stretch of load, a telemetry on/off
/// A/B of untraced stretches, then the in-process layer timings.
fn traced(
    wl: &Workload,
    sctool: &Path,
    window: Duration,
    origin: Instant,
    tally: &mut Tally,
) -> Result<Report, String> {
    let server = Server::start(sctool, &wl.server_args(true))?;
    let phase = drive(wl, &server.addr, FIRST_WARMUP, window / 2, true, true)?;
    let cpu = server.cpu_s()?;
    server.shutdown()?;
    tally.add(&phase);
    let replies = phase.logs().map(|l| l.samples.len()).sum::<usize>();

    // Telemetry on/off, alternating which side runs first. The "on"
    // stretches double as the untraced baseline for the tracing cost.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for telemetry in [true, false, false, true] {
        let s = Server::start(sctool, &wl.server_args(telemetry))?;
        let p = drive(wl, &s.addr, WARMUP, window / 8, false, false)?;
        s.shutdown()?;
        tally.add(&p);
        let rtts = p.rtts();
        eprintln!(
            "perfbench: telemetry {} stretch: {} replies, p50 {:.3} ms",
            if telemetry { "on" } else { "off" },
            rtts.len(),
            median(&rtts)
        );
        (if telemetry { &mut on } else { &mut off }).push(median(&rtts));
    }

    let mut spans = Spans::new(true);
    let mut r = Report::default();
    let clock = phase.clock;
    let window: Vec<&Sample> = phase.window().collect();
    let ms = |f: &dyn Fn(&Sample) -> f64, only: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        window.iter().copied().filter(|s| only(s)).map(f).collect()
    };
    let all = |_: &Sample| true;
    let executed = |s: &Sample| !s.reply.cached && !s.reply.coalesced;
    let rtts = ms(&Sample::rtt_ms, &all);
    let frontdoor = ms(&Sample::frontdoor_ms, &all);
    let waits = ms(&|s| s.reply.wait_us as f64 / 1e3, &all);
    let exec = ms(
        &|s| s.reply.us.saturating_sub(s.reply.wait_us) as f64 / 1e3,
        &executed,
    );
    // The tails, and the cold tenant's latency, vary too much from run
    // to run on a shared host to carry a bound; the traced run reports
    // them, as 0 where too few samples lie beyond them (p99 on
    // `scan-heavy`).
    let cold: Vec<f64> = phase.probes().map(Sample::rtt_ms).collect();
    for (name, values, p) in [
        ("request.latency_p90_ms", &rtts, 90.0),
        ("request.latency_p99_ms", &rtts, 99.0),
        ("tenants.cold_latency_p50_ms", &cold, 50.0),
        ("tenants.cold_latency_p90_ms", &cold, 90.0),
    ] {
        if values.len() >= needed(p) {
            r.set(name, percentile(values, p));
        } else {
            eprintln!(
                "perfbench: {} samples do not support {name}; it reads 0",
                values.len()
            );
            r.set(name, 0.0);
        }
    }
    r.set("server.cpu_ms_per_query", cpu * 1e3 / replies.max(1) as f64);
    r.set("net.frontdoor_p50_ms", percentile(&frontdoor, 50.0));
    r.set("net.frontdoor_p90_ms", percentile(&frontdoor, 90.0));
    r.set("service.queue_wait_p50_ms", percentile(&waits, 50.0));
    r.set("service.queue_wait_p90_ms", percentile(&waits, 90.0));
    r.set("service.exec_p50_ms", percentile(&exec, 50.0));
    r.set("service.exec_p90_ms", percentile(&exec, 90.0));
    r.set("trace.overhead_p50_ms", percentile(&rtts, 50.0) - mean(&on));
    r.set("telemetry.overhead_ratio", mean(&on) / mean(&off));

    // Counter deltas across the window, from the scrapes at its edges.
    let (first, last) = phase
        .control
        .window_scrapes(&clock)
        .ok_or("the window-edge scrapes are missing")?;
    let delta = |name: &str| {
        last.values.get(name).copied().unwrap_or(0.0)
            - first.values.get(name).copied().unwrap_or(0.0)
    };
    let tenant_grants = |t: &str| {
        let seg: String = t
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        delta(&format!("sc_tenant_{seg}_shard_grants_total"))
    };
    r.set("net.shed", delta("sc_net_shed_total"));
    r.set(
        "alignment.mid_stream_admissions",
        delta("sc_mid_stream_admissions_total"),
    );
    r.set("alignment.aligned_joins", delta("sc_aligned_joins_total"));
    let scans = delta("sc_scans_physical_total");
    r.set("stream.physical_scans", scans);
    let passes: usize = phase
        .logs()
        .flat_map(|l| &l.samples)
        .filter(|s| executed(s) && s.recv >= first.at && s.recv < last.at)
        .map(|s| s.reply.passes)
        .sum();
    r.set("stream.sharing_ratio", passes as f64 / scans.max(1.0));
    r.set(
        "fairness.shard_grants",
        wl.tenants.iter().map(|t| tenant_grants(&t.name)).sum(),
    );
    r.set(
        "fairness.min_tenant_shard_grants",
        wl.hot
            .iter()
            .map(|&t| tenant_grants(&wl.tenants[t].name))
            .fold(f64::INFINITY, f64::min),
    );
    let per_tenant: Vec<f64> = wl
        .hot
        .iter()
        .map(|&t| {
            window
                .iter()
                .filter(|s| s.reply.repo == wl.tenants[t].name)
                .count() as f64
        })
        .collect();
    r.set(
        "fairness.min_tenant_share",
        per_tenant.iter().copied().fold(f64::INFINITY, f64::min) / mean(&per_tenant).max(1.0),
    );
    let cold_waits: Vec<f64> = phase
        .probes()
        .map(|s| s.reply.wait_us as f64 / 1e3)
        .collect();
    r.set(
        "tenants.cold_queue_wait_p90_ms",
        percentile(&cold_waits, 90.0),
    );
    let reloads = &phase.control.reloads;
    r.set(
        "tenants.reload_ms",
        median(&reloads.iter().map(|x| x.0).collect::<Vec<_>>()),
    );
    r.set(
        "tenants.generation_changes",
        reloads.iter().filter(|x| x.2 != x.1).count() as f64,
    );
    let hits = delta("sc_cache_hits_total");
    r.set(
        "cache.hit_ratio",
        hits / (hits + delta("sc_cache_misses_total")).max(1.0),
    );
    r.set("cache.coalesced", delta("sc_coalesced_total"));
    r.set("cache.evictions", delta("sc_cache_evictions_total"));
    let kernel_calls = delta("sc_kernel_calls_avx2_total") + delta("sc_kernel_calls_scalar_total");
    r.set(
        "bitset.kernel_calls_per_job",
        kernel_calls / delta("sc_query_jobs_total").max(1.0),
    );
    r.set(
        "telemetry.scrape_ms",
        median(
            &phase
                .control
                .scrapes
                .iter()
                .map(|s| s.rtt_ms)
                .collect::<Vec<_>>(),
        ),
    );
    r.set(
        "telemetry.journal_events_per_query",
        delta("sc_journal_events_total") / delta("sc_queries_completed_total").max(1.0),
    );
    r.set(
        "loadgen.sent",
        phase.logs().map(|l| l.sent).sum::<u64>() as f64,
    );
    let lags: Vec<f64> = phase
        .loads
        .iter()
        .flat_map(|l| l.lag_ms.iter().copied())
        .collect();
    r.set("loadgen.lag_p99_ms", percentile(&lags, 99.0));

    // In-process layers, with the server gone.
    let lines: Vec<String> = phase.logs().flat_map(|l| l.lines.iter().cloned()).collect();
    r.set("protocol.parse_ns", layers::parse_ns(&lines, &mut spans)?);
    let primary = &wl.tenants[wl.reference[0].tenant].system;
    let specs: Vec<_> = wl.reference.iter().map(|x| x.spec).collect();
    r.set(
        "protocol.render_ns",
        layers::render_ns(primary, &specs, &mut spans),
    );
    let solo = layers::solo_ms(wl, &mut spans);
    let solo_of = |keep: &dyn Fn(usize, &QuerySpec) -> bool| {
        let times: Vec<f64> = (0..solo.len())
            .filter(|&j| keep(j, &wl.reference[j].spec))
            .map(|j| solo[j])
            .collect();
        median(&times)
    };
    let partial = |spec: &QuerySpec| matches!(spec, QuerySpec::PartialCover { .. });
    r.set("core.solo_iter_ms", solo_of(&|_, spec| !partial(spec)));
    r.set("core.solo_partial_ms", solo_of(&|_, spec| partial(spec)));
    // Against the solo runs of the specs the load itself sends.
    r.set(
        "core.service_overhead_ratio",
        percentile(&exec, 50.0) / solo_of(&|j, _| wl.is_load_spec(j)).max(1e-9),
    );
    r.set("offline.greedy_ms", layers::greedy_ms(primary, &mut spans)?);
    let files: Vec<&str> = wl.tenants.iter().map(|t| t.path.as_str()).collect();
    r.set("setsystem.load_ms", layers::load_ms(&files, &mut spans)?);

    let mut streams: Vec<&Spans> = phase.logs().map(|l| &l.spans).collect();
    streams.push(&spans);
    let dir = Path::new(OUT_DIR).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.jsonl", wl.name));
    std::fs::write(&path, trace::render(origin, &streams))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(r)
}
