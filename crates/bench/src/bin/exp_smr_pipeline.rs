//! SMR pipelining experiment: simulation rounds and wall-clock of the
//! replicated log vs pipeline depth.
//!
//! The same 1600 commands are committed in the same 100 batches
//! (n = 7, t = 2, fault-free) at depths W ∈ {1, 2, 4, 8}. The pipelined
//! scheduler interleaves up to `W` broadcast slots per synchronous round
//! (one simulation lane per slot), so total rounds divide by ≈ W while —
//! by construction — the committed log and the final `KvStore` digest are
//! identical at every depth (asserted here).
//!
//! A separate large-committee row then times one pipelined run at
//! n = 64, t = 21 with a warm lane pool sized to the slot window
//! (`big_n` in the JSON, with its own manifest): the regime the pooled
//! lane executor and stripe-sharded codec kernels exist for.
//!
//! Writes `results/BENCH_pipeline.json` and fails loudly unless depth 4
//! cuts total rounds at least 3x vs depth 1 with identical digests.
//!
//! ```sh
//! cargo run --release -p mvbc-bench --bin exp_smr_pipeline [-- --fast]
//! ```
//!
//! `--fast` (the CI perf-smoke mode) trims the slot counts; the JSON
//! schema is identical.

use std::time::Instant;

use mvbc_bench::{manifest_json, Table};
use mvbc_metrics::MetricsSink;
use mvbc_smr::{
    simulate_smr, synthetic_workloads, Command, HonestReplica, SmrConfig, SmrHooks,
    COMMIT_GAP_TAG,
};

const N: usize = 7;
const T: usize = 2;
const SLOTS: usize = 100;
const SLOTS_FAST: usize = 24;
const BATCH: usize = 16;
const SEED: u64 = 11;
const DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// Large-committee row: the paper's regime of interest for pooled lanes
/// and sharded codec kernels (n >= 64 keeps 3t + 1 <= n with t = 21).
const BIG_N: usize = 64;
const BIG_T: usize = 21;
const BIG_SLOTS: usize = 16;
const BIG_SLOTS_FAST: usize = 8;
const BIG_DEPTH: usize = 4;

struct Measured {
    depth: usize,
    rounds: u64,
    wall_ms: f64,
    bits: u64,
    commands: u64,
    digest: u64,
    restarts: u64,
    commit_gap_p50: u64,
    commit_gap_p99: u64,
}

// Bench harness: wall-clock timing is the deliverable, exempt from the
// determinism mirror in clippy.toml.
#[allow(clippy::disallowed_methods)]
fn run_at_depth(depth: usize, slots: usize) -> Measured {
    let cfg = SmrConfig::new(N, T, slots, BATCH)
        .expect("valid parameters")
        .with_pipeline(depth);
    let workloads = synthetic_workloads(N, slots.div_ceil(N) * BATCH, SEED);
    let hooks: Vec<Box<dyn SmrHooks>> = (0..N).map(|_| HonestReplica::boxed()).collect();
    let metrics = MetricsSink::with_telemetry();
    let start = Instant::now();
    let run = simulate_smr(&cfg, workloads, hooks, metrics.clone());
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for w in run.reports.windows(2) {
        assert_eq!(w[0].agreed_log(), w[1].agreed_log(), "harness: replicas diverged");
    }
    let r = &run.reports[0];
    assert_eq!(r.fallback_slots, 0, "harness: fault-free run fell back");
    let gaps = metrics
        .telemetry()
        .expect("bench sinks carry telemetry")
        .snapshot()
        .histogram_for_tag(COMMIT_GAP_TAG);
    Measured {
        depth,
        rounds: run.rounds,
        wall_ms,
        bits: metrics.snapshot().total_logical_bits(),
        commands: r.committed_commands,
        digest: r.digest,
        restarts: r.restarts,
        commit_gap_p50: gaps.percentile(50.0),
        commit_gap_p99: gaps.percentile(99.0),
    }
}

struct BigMeasured {
    slots: usize,
    rounds: u64,
    wall_ms: f64,
    commands: u64,
    digest: u64,
    lanes_pool: usize,
    lane_workers_spawned: usize,
}

/// One pipelined large-committee run. The lane pool is sized to the
/// full slot window (`n * depth` concurrent lanes) so finished slots'
/// workers stay warm for the next slots instead of being respawned.
// Bench harness: wall-clock timing is the deliverable, exempt from the
// determinism mirror in clippy.toml.
#[allow(clippy::disallowed_methods)]
fn run_big(slots: usize) -> BigMeasured {
    let lanes_pool = BIG_N * BIG_DEPTH;
    let mut cfg = SmrConfig::new(BIG_N, BIG_T, slots, BATCH)
        .expect("valid parameters")
        .with_pipeline(BIG_DEPTH)
        .with_lanes_pool(lanes_pool);
    // 64 replicas on few cores take far longer per round than the
    // simulator's default wedge-detection window expects.
    cfg.round_timeout = Some(std::time::Duration::from_secs(600));
    let workloads = synthetic_workloads(BIG_N, slots.div_ceil(BIG_N) * BATCH, SEED);
    let hooks: Vec<Box<dyn SmrHooks>> = (0..BIG_N).map(|_| HonestReplica::boxed()).collect();
    let spawned_before = mvbc_netsim::lanepool::lane_pool_spawned();
    let start = Instant::now();
    let run = simulate_smr(&cfg, workloads, hooks, MetricsSink::new());
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for w in run.reports.windows(2) {
        assert_eq!(w[0].agreed_log(), w[1].agreed_log(), "harness: replicas diverged");
    }
    let r = &run.reports[0];
    assert_eq!(r.fallback_slots, 0, "harness: fault-free run fell back");
    BigMeasured {
        slots,
        rounds: run.rounds,
        wall_ms,
        commands: r.committed_commands,
        digest: r.digest,
        lanes_pool,
        lane_workers_spawned: mvbc_netsim::lanepool::lane_pool_spawned() - spawned_before,
    }
}

fn main() {
    // `--quick` is the flag `run_all` forwards to every experiment.
    let fast = std::env::args().any(|a| a == "--fast" || a == "--quick");
    let slots = if fast { SLOTS_FAST } else { SLOTS };
    let runs: Vec<Measured> = DEPTHS.iter().map(|&w| run_at_depth(w, slots)).collect();
    let big = run_big(if fast { BIG_SLOTS_FAST } else { BIG_SLOTS });
    let seq = &runs[0];
    for m in &runs[1..] {
        assert_eq!(m.digest, seq.digest, "depth {} changed the final state", m.depth);
        assert_eq!(m.commands, seq.commands, "depth {} changed the committed commands", m.depth);
        assert_eq!(m.bits, seq.bits, "depth {} changed the traffic (honest runs never discard)", m.depth);
    }

    let mut table = Table::new(&[
        "depth W",
        "rounds",
        "speedup",
        "wall ms",
        "restarts",
        "commands",
        "digest",
    ]);
    for m in &runs {
        table.row(vec![
            m.depth.to_string(),
            m.rounds.to_string(),
            format!("{:.2}x", seq.rounds as f64 / m.rounds as f64),
            format!("{:.0}", m.wall_ms),
            m.restarts.to_string(),
            m.commands.to_string(),
            format!("{:016x}", m.digest),
        ]);
    }
    println!(
        "# E17: SMR concurrent-slot pipelining (n = {N}, t = {T}, {slots} slots x {BATCH} commands of {} bytes){}\n",
        Command::WIRE_BYTES,
        if fast { " (--fast)" } else { "" }
    );
    println!("{}", table.to_markdown());
    println!(
        "large committee: n = {BIG_N}, t = {BIG_T}, {} slots at depth {BIG_DEPTH} in {:.0} ms \
         ({} rounds, {} commands, digest {:016x}; lane pool {} kept {} spawned workers warm)",
        big.slots,
        big.wall_ms,
        big.rounds,
        big.commands,
        big.digest,
        big.lanes_pool,
        big.lane_workers_spawned,
    );
    let w4 = runs.iter().find(|m| m.depth == 4).expect("depth 4 measured");
    let speedup4 = seq.rounds as f64 / w4.rounds as f64;
    println!(
        "pipelining: depth 4 runs the log in {} rounds vs {} at depth 1 ({speedup4:.2}x) with identical digests",
        w4.rounds, seq.rounds
    );

    let per_depth: Vec<String> = runs
        .iter()
        .map(|m| {
            format!(
                "    {{ \"depth\": {}, \"rounds\": {}, \"wall_ms\": {:.1}, \"logical_bits\": {}, \"restarts\": {}, \"commit_gap_p50\": {}, \"commit_gap_p99\": {}, \"digest\": \"{:016x}\" }}",
                m.depth, m.rounds, m.wall_ms, m.bits, m.restarts, m.commit_gap_p50, m.commit_gap_p99, m.digest
            )
        })
        .collect();
    let big_json = format!(
        "{{\n    \"manifest\": {},\n    \"n\": {BIG_N}, \"t\": {BIG_T}, \"slots\": {}, \"batch_commands\": {BATCH}, \"depth\": {BIG_DEPTH},\n    \"rounds\": {}, \"wall_ms\": {:.1}, \"commands\": {}, \"digest\": \"{:016x}\",\n    \"lanes_pool\": {}, \"lane_workers_spawned\": {}\n  }}",
        manifest_json(BIG_N, BIG_T, SEED, "round-barrier"),
        big.slots,
        big.rounds,
        big.wall_ms,
        big.commands,
        big.digest,
        big.lanes_pool,
        big.lane_workers_spawned,
    );
    let json = format!(
        "{{\n  \"experiment\": \"smr_pipeline\",\n  \"fast\": {fast},\n  \"manifest\": {},\n  \"config\": {{ \"n\": {N}, \"t\": {T}, \"slots\": {slots}, \"batch_commands\": {BATCH}, \"total_commands\": {} }},\n  \"runs\": [\n{}\n  ],\n  \"big_n\": {big_json},\n  \"round_speedup_depth4\": {speedup4:.2},\n  \"digests_identical\": true\n}}\n",
        manifest_json(N, T, SEED, "round-barrier"),
        seq.commands,
        per_depth.join(",\n"),
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_pipeline.json", json).expect("write results/BENCH_pipeline.json");
    println!("\nwrote results/BENCH_pipeline.json");

    assert!(
        speedup4 >= 3.0,
        "pipelining regression: depth 4 only {speedup4:.2}x fewer rounds (expected >= 3x)"
    );
}
