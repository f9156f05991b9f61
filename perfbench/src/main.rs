//! End-to-end and per-layer benchmark of the mvbc workspace. README.md
//! explains the workloads, the metrics and how to run it; `run.py` is
//! the entry point that builds this binary and forwards its arguments.
//!
//! Untraced (`--trace 0`) the binary prints the end-to-end metrics;
//! traced (`--trace 1`) it prints the per-layer ones. Either way the
//! last line of standard output is one JSON object, and a human report
//! goes to standard error.

// Measuring wall-clock time is this program's purpose (the workspace
// clippy.toml bans `Instant::now` for protocol code).
#![allow(clippy::disallowed_methods)]

mod probe;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{exit, Command};
use std::time::Instant;

use stats::{beyond, median, quantile};
use workload::{
    find, run_traced, run_untraced, Counts, Inputs, Run, Traced, Workload, DEFAULT_SEED,
};

const USAGE: &str = "usage: mvbc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--out-dir <dir>] [--setup-only]\nworkloads: log-n7-seq, log-n16-w4, consensus-16MiB, consensus-attack";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(find(&value).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir,
        setup_only,
    })
}

/// Runs `f`, turning a panic (a failed protocol assertion, or the
/// simulator's wedge detector) into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Attempted and failed runs, plus the exact work counts every run of
/// the invocation must repeat.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<Counts>,
}

impl Tally {
    fn fail(&mut self, what: &str, err: &str) {
        self.failed += 1;
        eprintln!("perfbench: {what} failed: {err}");
    }

    /// Counts one run; a run whose output check failed, or whose work
    /// counts differ from the invocation's first good run, is failed.
    fn record<T>(
        &mut self,
        what: &str,
        result: Result<T, String>,
        counts: impl Fn(&T) -> Counts,
    ) -> Option<T> {
        self.attempted += 1;
        let result = result.and_then(|r| {
            let c = counts(&r);
            match self.reference {
                Some(reference) if reference != c => Err(format!(
                    "work counts {c:?} differ from this invocation's first run {reference:?}"
                )),
                _ => {
                    self.reference = Some(c);
                    Ok(r)
                }
            }
        });
        result.map_err(|e| self.fail(what, &e)).ok()
    }
}

/// Set-up: input generation, config validation and one untimed warm-up
/// run that fills the process-wide caches (GF tables, generator-row and
/// weight caches, lane pool). Invalid configurations are fatal.
fn setup(args: &Args, tally: &mut Tally) -> Inputs {
    let inputs = args.workload.inputs(args.seed).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1)
    });
    tally.record("warm-up run", guarded(|| run_untraced(&inputs)), |r| {
        r.counts
    });
    inputs
}

/// Set-up time of a fresh process: this binary re-run with
/// `--setup-only`, which prints its own set-up time.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name,
            "--seed",
            &args.seed.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("spawning set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up process exited with {}", out.status))
}

/// A metric as printed: name, unit and value.
type Metric = (&'static str, &'static str, f64);

/// What each per-layer metric should move, and on which workload,
/// by name prefix (first match wins). The traced report prints each
/// metric under its entry.
const LAYER_MOVES: &[(&str, &str)] = &[
    ("netsim.payload_mb", "agreed_MBps on consensus-16MiB"),
    ("netsim.bulk_ms", "agreed_MBps on consensus-16MiB"),
    ("netsim.lane_spawns", "slot_ms_* on log-n16-w4"),
    ("netsim.threads_peak", "slot_ms_* on log-n16-w4"),
    (
        "netsim.",
        "slot_ms_* on log-*, agreed_MBps on consensus-attack; no effect on consensus-16MiB",
    ),
    (
        "bsb.",
        "slot_ms_p50 on log-*, agreed_MBps on consensus-attack; near zero on consensus-16MiB",
    ),
    (
        "rscode.",
        "agreed_MBps on consensus-16MiB (bulk) and consensus-attack (per call); under 5% on log-*",
    ),
    (
        "core.",
        "agreed_MBps on consensus-*; diagnosis generations show in gen_ms_p90 on consensus-attack",
    ),
    ("broadcast.", "slot_ms_* on log-*"),
    ("smr.", "slot_ms_* on log-*"),
    (
        "metrics.",
        "slot_ms_growth and slot_ms_p50 on log-n7-seq; no move on consensus-16MiB",
    ),
    ("trace.", "nothing: the cost of tracing itself"),
];

fn main() {
    let process_start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let mut tally = Tally::default();
    let inputs = setup(&args, &mut tally);
    let setup_s = process_start.elapsed().as_secs_f64();
    if args.setup_only {
        if tally.failed > 0 {
            exit(1);
        }
        println!("setup_s {setup_s}");
        return;
    }

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let (metrics, extras, spans) = if args.trace {
        traced_phase(&inputs, deadline, args.seed, &mut tally)
    } else {
        let runs = untraced_phase(&inputs, deadline, &mut tally);
        let mut setups = vec![setup_s];
        for _ in 0..2 {
            // Each set-up process makes a checked warm-up run.
            tally.attempted += 1;
            match child_setup(&args) {
                Ok(s) => setups.push(s),
                Err(e) => tally.fail("set-up process", &e),
            }
        }
        let (metrics, extras) = end_to_end(&inputs, &runs, &setups, tally.reference);
        (metrics, extras, None)
    };

    let correct = tally.failed == 0;
    report(&args, &tally, &metrics, &extras);
    if let Some(dir) = &args.out_dir {
        if let Err(e) = write_outputs(dir, &args, &tally, &metrics, &extras, spans.as_deref()) {
            eprintln!("perfbench: writing {}: {e}", dir.display());
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics_json(&metrics, ", ")
    );
}

/// Metrics as JSON object members `"name": {"value": v, "unit": "u"}`,
/// joined by `sep`. Non-finite values, which no metric should produce,
/// print as 0.
fn metrics_json(metrics: &[Metric], sep: &str) -> String {
    metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "0".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(sep)
}

/// Untraced runs, back to back, until the deadline (at least one).
fn untraced_phase(inputs: &Inputs, deadline: Instant, tally: &mut Tally) -> Vec<Run> {
    let mut runs = Vec::new();
    loop {
        if let Some(run) = tally.record("run", guarded(|| run_untraced(inputs)), |r| r.counts) {
            runs.push(run);
        }
        if Instant::now() >= deadline {
            let walls: Vec<String> = runs.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
            eprintln!("run wall times (s): {}", walls.join(" "));
            return runs;
        }
    }
}

/// The end-to-end metrics (in `BENCHMARK.json` order) and the extra
/// report-only figures of an untraced invocation.
fn end_to_end(
    inputs: &Inputs,
    runs: &[Run],
    setups: &[f64],
    counts: Option<Counts>,
) -> (Vec<Metric>, Vec<Metric>) {
    let units: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.unit_ms.iter().copied())
        .collect();
    let (mut head, mut tail) = (Vec::new(), Vec::new());
    for r in runs {
        let q = r.unit_ms.len() / 4;
        head.extend_from_slice(&r.unit_ms[..q]);
        tail.extend_from_slice(&r.unit_ms[r.unit_ms.len() - q..]);
    }
    let rate = |f: &dyn Fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let agreed_bits = runs.first().map_or(0, |r| r.agreed_bytes * 8) as f64;
    let counts = counts.unwrap_or_default();
    let metrics = vec![
        ("slot_ms_p50", "ms", median(&units)),
        ("slot_ms_p90", "ms", quantile(&units, 0.9)),
        ("slot_ms_growth", "ratio", median(&tail) / median(&head)),
        (
            "agreed_MBps",
            "MB/s",
            rate(&|r| r.agreed_bytes as f64 / 1e6 / r.wall_s),
        ),
        (
            "bits_per_agreed_bit",
            "ratio",
            counts.bits as f64 / agreed_bits,
        ),
        ("rounds", "rounds", counts.rounds as f64),
        ("setup_s", "s", median(setups)),
        (
            "peak_rss_mb",
            "MB",
            trace::status_field("VmHWM:") as f64 * 1024.0 / 1e6,
        ),
    ];
    let mut extras = vec![
        ("slot_samples", "count", units.len() as f64),
        (
            "slot_samples_beyond_p90",
            "count",
            beyond(&units, 0.9) as f64,
        ),
        ("runs", "count", runs.len() as f64),
        ("run_s_p50", "s", rate(&|r| r.wall_s)),
    ];
    if matches!(inputs, Inputs::Log { .. }) {
        extras.push((
            "cmds_per_s",
            "1/s",
            rate(&|r| r.agreed_bytes as f64 / 6.0 / r.wall_s),
        ));
    }
    extras.extend([
        ("work.bits", "count", counts.bits as f64),
        ("work.messages", "count", counts.messages as f64),
        ("work.units", "count", counts.units as f64),
        ("work.diag_stages", "count", counts.diag_stages as f64),
    ]);
    (metrics, extras)
}

/// Probe results at the workload's geometry.
#[derive(Default)]
struct Probes {
    round_us: f64,
    exchange_us: f64,
    bulk_ms: f64,
    codec: probe::CodecTimes,
}

impl Probes {
    fn take(inputs: &Inputs, seed: u64) -> Result<Probes, String> {
        let (n, t, d) = (inputs.n(), inputs.t(), inputs.gen_bytes());
        let symbol_bytes = mvbc_rscode::StripedCode::c2t(n, t, d)
            .map_err(|e| format!("codec geometry: {e}"))?
            .layout()
            .stripes
            * 2;
        Ok(Probes {
            round_us: probe::round_us(n, 2000, 0),
            exchange_us: probe::round_us(n, 2000, 1),
            bulk_ms: probe::round_us(n, 5, symbol_bytes) / 1e3,
            codec: probe::codec(n, t, d, seed)?,
        })
    }
}

/// Per-layer figures that one traced run gives on its own (probe-based
/// figures are added once all runs are done).
fn run_layers(inputs: &Inputs, t: &Traced) -> BTreeMap<&'static str, f64> {
    let honest = inputs.honest();
    let n = inputs.n() as f64;
    let node_ms = honest
        .iter()
        .map(|&i| t.nodes[i].bsb_busy_ms())
        .sum::<f64>()
        / honest.len().max(1) as f64;
    let tel = t
        .sink
        .telemetry()
        .map(|tel| tel.snapshot().phase_totals())
        .unwrap_or_default();
    let phase_ms = |p: &str| {
        tel.get(p)
            .map_or(0.0, |&(_, wall_ns)| wall_ns as f64 / 1e6 / n)
    };
    let total_vtime: u64 = tel.values().map(|&(v, _)| v).sum();
    let vote_vtime = tel.get("vote").map_or(0, |&(v, _)| v);
    let is_log = matches!(inputs, Inputs::Log { .. });
    let gens = if is_log {
        inputs.generations() as f64
    } else {
        t.run.counts.units as f64
    };
    let gen_ms: &[f64] = if is_log { &[] } else { &t.run.unit_ms };
    let attempts = if is_log {
        t.nodes[0].attempts as f64
    } else {
        0.0
    };
    let snapshot_ms = median(
        &(0..5)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(t.sink.snapshot());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>(),
    );
    let c = t.run.counts;
    BTreeMap::from([
        ("traced_wall_s", t.run.wall_s),
        ("netsim.messages", c.messages as f64),
        ("netsim.payload_mb", c.payload_bytes as f64 / 1e6),
        ("netsim.lane_spawns", t.lane_spawns as f64),
        (
            "netsim.threads_peak",
            t.nodes[inputs.reporter()].threads_peak as f64,
        ),
        (
            "bsb.calls",
            t.nodes.iter().map(|x| x.bsb_calls).sum::<u64>() as f64,
        ),
        (
            "bsb.instances",
            t.nodes.iter().map(|x| x.bsb_instances).sum::<u64>() as f64,
        ),
        ("bsb.node_ms", node_ms),
        ("bsb.share", node_ms / 1e3 / t.run.wall_s),
        ("core.generations", gens),
        ("core.diag_stages", c.diag_stages as f64),
        ("core.isolated", c.isolated as f64),
        ("core.gen_ms_p50", median(gen_ms)),
        ("core.gen_ms_p90", quantile(gen_ms, 0.9)),
        ("broadcast.dispersal_ms", phase_ms("dispersal")),
        ("broadcast.echo_ms", phase_ms("echo")),
        ("broadcast.vote_ms", phase_ms("vote")),
        ("broadcast.diagnosis_ms", phase_ms("diagnosis")),
        (
            "broadcast.vote_vshare",
            if total_vtime == 0 {
                0.0
            } else {
                vote_vtime as f64 / total_vtime as f64
            },
        ),
        ("smr.propose_ms", phase_ms("propose")),
        ("smr.commit_ms", phase_ms("commit")),
        ("smr.attempts", attempts),
        (
            "smr.useful_ratio",
            if attempts > 0.0 {
                c.units as f64 / attempts
            } else {
                0.0
            },
        ),
        ("smr.restarts", t.restarts as f64),
        ("smr.fallback_slots", t.fallback_slots as f64),
        ("metrics.tags", t.sink.snapshot().tags().len() as f64),
        ("metrics.snapshot_ms", snapshot_ms),
    ])
}

/// Alternates untraced and traced runs until the deadline (at least one
/// of each), then probes the layers. Returns the per-layer metrics in
/// `BENCHMARK.json` order (medians over the traced runs), report-only
/// extras, and the last traced run's spans as CSV.
fn traced_phase(
    inputs: &Inputs,
    deadline: Instant,
    seed: u64,
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<Metric>, Option<String>) {
    let mut plain = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut spans = None;
    let mut first = true;
    while first || Instant::now() < deadline {
        if let Some(run) = tally.record("run", guarded(|| run_untraced(inputs)), |r| r.counts) {
            plain.push(run.wall_s);
        }
        if first || Instant::now() < deadline {
            if let Some(t) = tally.record("traced run", guarded(|| run_traced(inputs)), |t| {
                t.run.counts
            }) {
                layers.push(run_layers(inputs, &t));
                spans = Some(trace::spans_csv(t.start, t.end, &t.nodes));
            }
        }
        first = false;
    }
    let probes = guarded(|| Probes::take(inputs, seed)).unwrap_or_else(|e| {
        tally.attempted += 1;
        tally.fail("layer probes", &e);
        Probes::default()
    });
    let m = |name: &str| {
        median(
            &layers
                .iter()
                .filter_map(|l| l.get(name).copied())
                .collect::<Vec<_>>(),
        )
    };
    let plain_wall = median(&plain);
    let rounds = tally.reference.map_or(0, |c| c.rounds) as f64;
    let (enc, chk, dec) = inputs.codec_calls();
    let codec = probes.codec;
    let codec_s = (enc * codec.encode_us + chk * codec.check_us + dec * codec.decode_us) / 1e6;
    // The sequential engine snapshots the sink once per node per slot,
    // and the snapshot grows linearly over the log, so the mean one
    // costs about half the final one.
    let snapshots = match inputs {
        Inputs::Log { cfg, .. } if cfg.pipeline <= 1 => cfg.slots as f64,
        _ => 0.0,
    };
    let share = |x: f64| {
        if plain_wall > 0.0 {
            x / plain_wall
        } else {
            0.0
        }
    };
    let metrics: Vec<Metric> = vec![
        ("netsim.payload_mb", "MB", m("netsim.payload_mb")),
        ("netsim.bulk_ms", "ms", probes.bulk_ms),
        ("netsim.lane_spawns", "count", m("netsim.lane_spawns")),
        ("netsim.threads_peak", "count", m("netsim.threads_peak")),
        ("netsim.messages", "count", m("netsim.messages")),
        ("netsim.round_us", "us", probes.round_us),
        ("netsim.exchange_us", "us", probes.exchange_us),
        (
            "netsim.floor_share",
            "ratio",
            share(rounds * probes.exchange_us / 1e6),
        ),
        ("bsb.calls", "count", m("bsb.calls")),
        ("bsb.instances", "count", m("bsb.instances")),
        ("bsb.node_ms", "ms", m("bsb.node_ms")),
        ("bsb.share", "ratio", m("bsb.share")),
        ("rscode.encode_us", "us", codec.encode_us),
        ("rscode.check_us", "us", codec.check_us),
        ("rscode.decode_us", "us", codec.decode_us),
        ("rscode.share_est", "ratio", share(codec_s)),
        ("core.generations", "count", m("core.generations")),
        ("core.diag_stages", "count", m("core.diag_stages")),
        ("core.isolated", "count", m("core.isolated")),
        ("core.gen_ms_p50", "ms", m("core.gen_ms_p50")),
        ("core.gen_ms_p90", "ms", m("core.gen_ms_p90")),
        ("broadcast.dispersal_ms", "ms", m("broadcast.dispersal_ms")),
        ("broadcast.echo_ms", "ms", m("broadcast.echo_ms")),
        ("broadcast.vote_ms", "ms", m("broadcast.vote_ms")),
        ("broadcast.diagnosis_ms", "ms", m("broadcast.diagnosis_ms")),
        ("broadcast.vote_vshare", "ratio", m("broadcast.vote_vshare")),
        ("smr.propose_ms", "ms", m("smr.propose_ms")),
        ("smr.commit_ms", "ms", m("smr.commit_ms")),
        ("smr.attempts", "count", m("smr.attempts")),
        ("smr.useful_ratio", "ratio", m("smr.useful_ratio")),
        ("smr.restarts", "count", m("smr.restarts")),
        ("smr.fallback_slots", "count", m("smr.fallback_slots")),
        ("metrics.tags", "count", m("metrics.tags")),
        ("metrics.snapshot_ms", "ms", m("metrics.snapshot_ms")),
        (
            "metrics.share_est",
            "ratio",
            share(snapshots * m("metrics.snapshot_ms") / 2.0 / 1e3),
        ),
        ("trace.overhead", "ratio", share(m("traced_wall_s"))),
    ];
    let traced_wall = m("traced_wall_s");
    let extras = vec![
        ("untraced_runs", "count", plain.len() as f64),
        ("traced_runs", "count", layers.len() as f64),
        ("untraced_run_s_p50", "s", plain_wall),
        ("traced_run_s_p50", "s", traced_wall),
        (
            "share.smr_commit",
            "ratio",
            if traced_wall > 0.0 {
                m("smr.commit_ms") / 1e3 / traced_wall
            } else {
                0.0
            },
        ),
    ];
    (metrics, extras, spans)
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2)
}

/// Each layer's share of run wall time, largest first. Shares overlap
/// (BSB time includes barrier waits, which include other layers' work
/// at slower nodes), so they rank layers; they do not partition the run.
fn layer_shares(metrics: &[Metric], extras: &[Metric]) -> Vec<(&'static str, f64)> {
    let mut shares = vec![
        ("netsim (round floor)", value(metrics, "netsim.floor_share")),
        ("bsb", value(metrics, "bsb.share")),
        ("rscode (codec)", value(metrics, "rscode.share_est")),
        ("metrics (snapshots)", value(metrics, "metrics.share_est")),
        ("smr (commit)", value(extras, "share.smr_commit")),
    ];
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// The toolchain, profile and machine figures the numbers depend on.
fn manifest(args: &Args) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        ("workload", args.workload.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("codec_threads", mvbc_rscode::codec_threads().to_string()),
        (
            "lane_pool_retain",
            mvbc_netsim::lanepool::lane_pool_retain().to_string(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc", env("PERFBENCH_RUSTC")),
        ("commit", env("PERFBENCH_COMMIT")),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (thin LTO, codegen-units=1)"
            }
            .to_string(),
        ),
    ]
}

/// The human report, on standard error.
fn report(args: &Args, tally: &Tally, metrics: &[Metric], extras: &[Metric]) {
    let manifest: Vec<String> = manifest(args)
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("== perfbench {} ==", manifest.join(" "));
    eprintln!(
        "runs attempted {}, failed {}, error_rate {}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let mut group = "";
    for (name, unit, v) in metrics {
        if args.trace {
            let moves = LAYER_MOVES
                .iter()
                .find(|(prefix, _)| name.starts_with(prefix))
                .map_or("", |(_, m)| m);
            if moves != group {
                eprintln!("  should move {moves}:");
                group = moves;
            }
        }
        eprintln!("    {name:<24} {v:>16.4} {unit}");
    }
    for (name, unit, v) in extras {
        eprintln!("  ({name:<22} {v:>16.4} {unit})");
    }
    if args.trace {
        let shares = layer_shares(metrics, extras);
        let listed: Vec<String> = shares.iter().map(|(l, v)| format!("{l} {v:.3}")).collect();
        eprintln!(
            "layer shares of wall time (overlapping): {}",
            listed.join(", ")
        );
        eprintln!(
            "top layer by share on {}: {} ({:.3})",
            args.workload.name, shares[0].0, shares[0].1
        );
    } else if let Some(c) = tally.reference {
        let r = args.workload.recorded;
        if c != r {
            eprintln!("work differs from the counts recorded at seed {DEFAULT_SEED}: now {c:?}, recorded {r:?}");
        }
    }
}

/// Writes the full result (manifest, metrics, extras) as JSON and, for
/// traced invocations, the spans as CSV, into `dir`.
fn write_outputs(
    dir: &std::path::Path,
    args: &Args,
    tally: &Tally,
    metrics: &[Metric],
    extras: &[Metric],
    spans: Option<&str>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let manifest: Vec<String> = manifest(args)
        .iter()
        .map(|(k, v)| format!("    \"{k}\": \"{v}\""))
        .collect();
    let json = format!(
        "{{\n  \"manifest\": {{\n{}\n  }},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n    {}\n  }},\n  \"extras\": {{\n    {}\n  }}\n}}\n",
        manifest.join(",\n"),
        tally.attempted,
        tally.failed,
        metrics_json(metrics, ",\n    "),
        metrics_json(extras, ",\n    ")
    );
    std::fs::write(dir.join(format!("{stem}.json")), json)?;
    if let Some(csv) = spans {
        std::fs::write(dir.join(format!("{stem}.spans.csv")), csv)?;
    }
    Ok(())
}
