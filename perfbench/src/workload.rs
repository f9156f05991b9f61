//! The benchmark's workloads: their shapes, the inputs generated from
//! the workload seed, one run through the library's public entry
//! points, and the checks every run's output must pass.

use std::time::Instant;

use mvbc_adversary::WorstCaseDiagnosis;
use mvbc_bsb::{BsbDriver, PhaseKingDriver};
use mvbc_core::{simulate_consensus_with, ConsensusConfig, ConsensusRun, NoopHooks, ProtocolHooks};
use mvbc_metrics::{MetricsSink, Snapshot};
use mvbc_netsim::{lanepool, run_simulation, NodeCtx, NodeLogic, SimConfig};
use mvbc_smr::{
    run_replicated_log_pipelined, simulate_smr, simulate_smr_with, Command, HonestReplica, KvStore,
    SmrConfig, SmrHooks, SmrReport, StateMachine,
};

use crate::trace::{
    lock, unit_ms, NodeTrace, SharedNode, TracedBsb, TracedProcessor, TracedReplica, UnitClock,
};

/// The seed the recorded work counts below were taken at.
pub const DEFAULT_SEED: u64 = 11;

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// only on the workload seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Exact work of one run: identical on every run of one input, and
/// compared across all runs of an invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub bits: u64,
    pub messages: u64,
    pub payload_bytes: u64,
    pub rounds: u64,
    /// Committed slots (log) or completed generations (consensus).
    pub units: u64,
    pub diag_stages: u64,
    pub isolated: u64,
}

pub enum Shape {
    /// A replicated log of `slots` slots of `batch` six-byte commands.
    Log {
        n: usize,
        t: usize,
        slots: usize,
        batch: usize,
        pipeline: usize,
    },
    /// One consensus on a unanimous `value_bytes`-byte input; `faulty`
    /// processors run `WorstCaseDiagnosis`. `gen_bytes: None` is the
    /// paper's Eq. (2) generation size.
    Consensus {
        n: usize,
        t: usize,
        value_bytes: usize,
        gen_bytes: Option<usize>,
        faulty: &'static [usize],
    },
}

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Work counts at [`DEFAULT_SEED`], recorded when the benchmark was
    /// defined, so that a change in the protocol's work shows in the
    /// report. They do not depend on the seed for these shapes.
    pub recorded: Counts,
}

/// Why each workload exists is documented in README.md.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "log-n7-seq",
        shape: Shape::Log {
            n: 7,
            t: 2,
            slots: 256,
            batch: 16,
            pipeline: 1,
        },
        recorded: Counts {
            bits: 4285440,
            messages: 262656,
            payload_bytes: 663552,
            rounds: 9216,
            units: 256,
            diag_stages: 0,
            isolated: 0,
        },
    },
    Workload {
        name: "log-n16-w4",
        shape: Shape::Log {
            n: 16,
            t: 5,
            slots: 100,
            batch: 16,
            pipeline: 4,
        },
        recorded: Counts {
            bits: 49486500,
            messages: 2362500,
            payload_bytes: 6835500,
            rounds: 3675,
            units: 100,
            diag_stages: 0,
            isolated: 0,
        },
    },
    Workload {
        name: "consensus-16MiB",
        shape: Shape::Consensus {
            n: 7,
            t: 2,
            value_bytes: 16 << 20,
            gen_bytes: Some(1 << 20),
            faulty: &[],
        },
        recorded: Counts {
            bits: 1879379808,
            messages: 10176,
            payload_bytes: 234928992,
            rounds: 336,
            units: 16,
            diag_stages: 0,
            isolated: 0,
        },
    },
    Workload {
        name: "consensus-attack",
        shape: Shape::Consensus {
            n: 7,
            t: 2,
            value_bytes: 512 << 10,
            gen_bytes: None,
            faulty: &[0, 1],
        },
        recorded: Counts {
            bits: 49150780,
            messages: 165628,
            payload_bytes: 6222090,
            rounds: 20617,
            units: 977,
            diag_stages: 5,
            isolated: 2,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload's validated configuration and seeded inputs.
pub enum Inputs {
    Log {
        cfg: SmrConfig,
        commands: Vec<Vec<Command>>,
    },
    Consensus {
        cfg: ConsensusConfig,
        value: Vec<u8>,
        faulty: Vec<usize>,
    },
}

impl Workload {
    /// Validates the configuration and generates the inputs for `seed`.
    pub fn inputs(&self, seed: u64) -> Result<Inputs, String> {
        let mut rng = SplitMix(seed);
        match self.shape {
            Shape::Log {
                n,
                t,
                slots,
                batch,
                pipeline,
            } => {
                let cfg = SmrConfig::new(n, t, slots, batch)
                    .map_err(|e| format!("invalid log config: {e}"))?
                    .with_pipeline(pipeline);
                // Enough commands for a full batch on every primary turn.
                let per_replica = slots.div_ceil(n) * batch;
                let commands = (0..n)
                    .map(|_| {
                        (0..per_replica)
                            .map(|_| {
                                let r = rng.next();
                                Command {
                                    key: (r % 65_535) as u16 + 1,
                                    value: (r >> 32) as u32,
                                }
                            })
                            .collect()
                    })
                    .collect();
                Ok(Inputs::Log { cfg, commands })
            }
            Shape::Consensus {
                n,
                t,
                value_bytes,
                gen_bytes,
                faulty,
            } => {
                let cfg = match gen_bytes {
                    Some(d) => ConsensusConfig::with_gen_bytes(n, t, value_bytes, d),
                    None => ConsensusConfig::new(n, t, value_bytes),
                }
                .map_err(|e| format!("invalid consensus config: {e}"))?;
                let mut value = Vec::with_capacity(value_bytes);
                while value.len() < value_bytes {
                    value.extend_from_slice(&rng.next().to_le_bytes());
                }
                value.truncate(value_bytes);
                Ok(Inputs::Consensus {
                    cfg,
                    value,
                    faulty: faulty.to_vec(),
                })
            }
        }
    }
}

impl Inputs {
    pub fn n(&self) -> usize {
        match self {
            Inputs::Log { cfg, .. } => cfg.n,
            Inputs::Consensus { cfg, .. } => cfg.n,
        }
    }

    pub fn t(&self) -> usize {
        match self {
            Inputs::Log { cfg, .. } => cfg.t,
            Inputs::Consensus { cfg, .. } => cfg.t,
        }
    }

    /// Units in flight at once: the log's pipeline depth, 1 for consensus.
    pub fn window(&self) -> usize {
        match self {
            Inputs::Log { cfg, .. } => cfg.pipeline.max(1),
            Inputs::Consensus { .. } => 1,
        }
    }

    /// Generation size `D` the codec sees.
    pub fn gen_bytes(&self) -> usize {
        match self {
            Inputs::Log { cfg, .. } => cfg.resolved_gen_bytes(),
            Inputs::Consensus { cfg, .. } => cfg.resolved_gen_bytes(),
        }
    }

    /// Codec generations per run.
    pub fn generations(&self) -> u64 {
        match self {
            Inputs::Log { cfg, .. } => {
                (cfg.slots * cfg.slot_bytes().div_ceil(cfg.resolved_gen_bytes())) as u64
            }
            Inputs::Consensus { cfg, .. } => cfg.generations() as u64,
        }
    }

    /// Per-node codec calls per run (encode, check, decode), from the
    /// engines' fixed per-generation pattern when no diagnosis runs.
    /// Log generation: the primary encodes, every replica checks and
    /// every other replica decodes. Consensus generation: everyone
    /// encodes and decodes, the `t` processors outside `P_match` check.
    pub fn codec_calls(&self) -> (f64, f64, f64) {
        let (n, t, g) = (self.n() as f64, self.t() as f64, self.generations() as f64);
        match self {
            Inputs::Log { .. } => (g / n, g, g * (n - 1.0) / n),
            Inputs::Consensus { .. } => (g, g * t / n, g),
        }
    }

    /// The first fault-free node: the one whose clock times the units.
    pub fn reporter(&self) -> usize {
        self.honest()[0]
    }

    pub fn honest(&self) -> Vec<usize> {
        match self {
            Inputs::Log { cfg, .. } => (0..cfg.n).collect(),
            Inputs::Consensus { cfg, faulty, .. } => {
                (0..cfg.n).filter(|i| !faulty.contains(i)).collect()
            }
        }
    }
}

/// One run's measurements.
pub struct Run {
    pub wall_s: f64,
    /// Wall time of each slot (log) or generation (consensus) at the
    /// reporting node, in ms.
    pub unit_ms: Vec<f64>,
    pub counts: Counts,
    /// Agreed payload: 6 bytes per committed command, or `L`.
    pub agreed_bytes: u64,
}

/// What a traced run adds.
pub struct Traced {
    pub run: Run,
    pub sink: MetricsSink,
    pub nodes: Vec<NodeTrace>,
    pub start: Instant,
    pub end: Instant,
    pub lane_spawns: u64,
    /// Slot attempts the log discarded and re-proposed.
    pub restarts: u64,
    pub fallback_slots: u64,
}

/// Runs the workload once, untraced: the only instrumentation is the
/// reporting node's [`UnitClock`].
pub fn run_untraced(inputs: &Inputs) -> Result<Run, String> {
    let clock = UnitClock::default();
    let sink = MetricsSink::new();
    match inputs {
        Inputs::Log { cfg, commands } => {
            let mut hooks: Vec<Box<dyn SmrHooks>> =
                (0..cfg.n).map(|_| HonestReplica::boxed()).collect();
            hooks[0] = Box::new(clock.clone());
            let commands = commands.clone();
            let start = Instant::now();
            let run = simulate_smr(cfg, commands, hooks, sink.clone());
            let end = Instant::now();
            let (counts, agreed) = check_log(cfg, &run.reports, &run.stores, run.rounds, &sink)?;
            Ok(Run {
                wall_s: (end - start).as_secs_f64(),
                unit_ms: unit_ms(&clock.starts(), cfg.pipeline.max(1), end),
                counts,
                agreed_bytes: agreed,
            })
        }
        Inputs::Consensus { cfg, value, faulty } => {
            let reporter = inputs.reporter();
            let hooks = consensus_hooks(cfg.n, faulty, |i| {
                if i == reporter {
                    Box::new(clock.clone())
                } else {
                    NoopHooks::boxed()
                }
            });
            let drivers = (0..cfg.n)
                .map(|_| Box::new(PhaseKingDriver) as Box<dyn BsbDriver>)
                .collect();
            let values = vec![value.clone(); cfg.n];
            let start = Instant::now();
            let run = simulate_consensus_with(cfg, values, hooks, drivers, sink.clone());
            let end = Instant::now();
            let counts = check_consensus(cfg, value, faulty, reporter, &run, &sink)?;
            Ok(Run {
                wall_s: (end - start).as_secs_f64(),
                unit_ms: unit_ms(&clock.starts(), 1, end),
                counts,
                agreed_bytes: cfg.value_bytes as u64,
            })
        }
    }
}

/// Runs the workload once with every node wrapped and telemetry on.
pub fn run_traced(inputs: &Inputs) -> Result<Traced, String> {
    let reporter = inputs.reporter();
    let sink = MetricsSink::with_telemetry();
    let spawned = lanepool::lane_pool_spawned();
    let sequential = inputs.window() == 1;
    let traces: Vec<SharedNode> = (0..inputs.n())
        .map(|i| NodeTrace::shared(sequential, i == reporter))
        .collect();
    let (start, end, counts, agreed, restarts, fallback_slots) = match inputs {
        Inputs::Log { cfg, commands } if sequential => {
            let hooks = traces
                .iter()
                .map(|t| Box::new(TracedReplica(t.clone())) as Box<dyn SmrHooks>)
                .collect();
            let drivers = traces
                .iter()
                .map(|t| Box::new(TracedBsb::new(t.clone())) as Box<dyn BsbDriver>)
                .collect();
            let commands = commands.clone();
            let start = Instant::now();
            let run = simulate_smr_with(cfg, commands, hooks, drivers, sink.clone());
            let end = Instant::now();
            let (counts, agreed) = check_log(cfg, &run.reports, &run.stores, run.rounds, &sink)?;
            let r = &run.reports[0];
            (start, end, counts, agreed, r.restarts, r.fallback_slots)
        }
        Inputs::Log { cfg, commands } => {
            // The pipelined engine needs one driver per slot attempt, so
            // the nodes run `run_replicated_log_pipelined` directly with
            // a wrapping driver factory.
            let logics: Vec<NodeLogic<(SmrReport, KvStore)>> = commands
                .iter()
                .cloned()
                .zip(&traces)
                .map(|(commands, trace)| {
                    let cfg = cfg.clone();
                    let trace = trace.clone();
                    Box::new(move |ctx: &mut NodeCtx| {
                        let mut hooks = TracedReplica(trace.clone());
                        let mut make_driver = || {
                            Box::new(TracedBsb::for_current_unit(trace.clone()))
                                as Box<dyn BsbDriver>
                        };
                        let mut store = KvStore::default();
                        let report = run_replicated_log_pipelined(
                            ctx,
                            &cfg,
                            commands,
                            &mut hooks,
                            &mut make_driver,
                            &mut store,
                        );
                        (report, store)
                    }) as NodeLogic<(SmrReport, KvStore)>
                })
                .collect();
            let start = Instant::now();
            let result = run_simulation(SimConfig::new(cfg.n), sink.clone(), logics);
            let end = Instant::now();
            let (reports, stores): (Vec<SmrReport>, Vec<KvStore>) =
                result.outputs.into_iter().unzip();
            let (counts, agreed) = check_log(cfg, &reports, &stores, result.rounds, &sink)?;
            (
                start,
                end,
                counts,
                agreed,
                reports[0].restarts,
                reports[0].fallback_slots,
            )
        }
        Inputs::Consensus { cfg, value, faulty } => {
            let hooks = consensus_hooks(cfg.n, faulty, |i| {
                Box::new(TracedProcessor(traces[i].clone()))
            });
            let drivers = traces
                .iter()
                .map(|t| Box::new(TracedBsb::new(t.clone())) as Box<dyn BsbDriver>)
                .collect();
            let values = vec![value.clone(); cfg.n];
            let start = Instant::now();
            let run = simulate_consensus_with(cfg, values, hooks, drivers, sink.clone());
            let end = Instant::now();
            let counts = check_consensus(cfg, value, faulty, reporter, &run, &sink)?;
            (start, end, counts, cfg.value_bytes as u64, 0, 0)
        }
    };
    let nodes: Vec<NodeTrace> = traces
        .iter()
        .map(|t| std::mem::take(&mut *lock(t)))
        .collect();
    let unit_ms = unit_ms(&nodes[reporter].unit_starts, inputs.window(), end);
    Ok(Traced {
        run: Run {
            wall_s: (end - start).as_secs_f64(),
            unit_ms,
            counts,
            agreed_bytes: agreed,
        },
        sink,
        nodes,
        start,
        end,
        lane_spawns: (lanepool::lane_pool_spawned() - spawned) as u64,
        restarts,
        fallback_slots,
    })
}

/// `WorstCaseDiagnosis` on the faulty processors (all given the same
/// team), `honest(i)` everywhere else.
fn consensus_hooks(
    n: usize,
    faulty: &[usize],
    mut honest: impl FnMut(usize) -> Box<dyn ProtocolHooks>,
) -> Vec<Box<dyn ProtocolHooks>> {
    (0..n)
        .map(|i| {
            if faulty.contains(&i) {
                Box::new(WorstCaseDiagnosis::new(faulty.to_vec())) as Box<dyn ProtocolHooks>
            } else {
                honest(i)
            }
        })
        .collect()
}

fn sink_counts(snap: &Snapshot, n: usize, rounds: u64) -> Counts {
    Counts {
        bits: snap.total_logical_bits(),
        messages: snap.total_messages(),
        payload_bytes: (0..n).map(|i| snap.counter_for_node(i).payload_bytes).sum(),
        rounds,
        units: 0,
        diag_stages: 0,
        isolated: 0,
    }
}

/// Checks a fault-free log: every replica holds the same agreed log;
/// replaying the committed batches into a fresh `KvStore` reproduces
/// every replica's digest (sequential equivalence, checked from
/// outside); every slot committed a full batch and none fell back.
/// Returns the run's work counts and agreed payload bytes.
fn check_log(
    cfg: &SmrConfig,
    reports: &[SmrReport],
    stores: &[KvStore],
    rounds: u64,
    sink: &MetricsSink,
) -> Result<(Counts, u64), String> {
    let first = reports.first().ok_or("no replica reports")?;
    let log = first.agreed_log();
    if let Some(i) = reports.iter().position(|r| r.agreed_log() != log) {
        return Err(format!("replica {i}'s agreed log differs from replica 0's"));
    }
    let mut replay = KvStore::default();
    for slot in &first.slots {
        replay.apply_batch(&slot.committed);
    }
    let digest = replay.digest();
    for (i, (report, store)) in reports.iter().zip(stores).enumerate() {
        if report.digest != digest || store.digest() != digest {
            return Err(format!(
                "replica {i}'s state digest differs from the replayed log"
            ));
        }
    }
    let expected = (cfg.slots * cfg.batch_capacity()) as u64;
    for (i, report) in reports.iter().enumerate() {
        if report.slots.len() != cfg.slots
            || report.committed_commands != expected
            || report.fallback_slots != 0
        {
            return Err(format!(
                "replica {i} committed {} commands over {} slots with {} fallback slots; \
                 a fault-free log commits {expected} over {} with none",
                report.committed_commands,
                report.slots.len(),
                report.fallback_slots,
                cfg.slots
            ));
        }
    }
    let counts = Counts {
        units: first.slots.len() as u64,
        diag_stages: first.slots.iter().map(|s| s.diagnosis_invocations).sum(),
        isolated: first.isolated.len() as u64,
        ..sink_counts(&sink.snapshot(), cfg.n, rounds)
    };
    Ok((
        counts,
        first.committed_commands * Command::WIRE_BYTES as u64,
    ))
}

/// Checks a consensus on a unanimous input: every fault-free output is
/// the input (validity), diagnosis ran at most `t(t+1)` times (Theorem
/// 1), and only faulty processors were isolated (Lemma 4).
fn check_consensus(
    cfg: &ConsensusConfig,
    value: &[u8],
    faulty: &[usize],
    reporter: usize,
    run: &ConsensusRun,
    sink: &MetricsSink,
) -> Result<Counts, String> {
    let bound = (cfg.t * (cfg.t + 1)) as u64;
    for i in (0..cfg.n).filter(|i| !faulty.contains(i)) {
        if run.outputs[i] != value {
            return Err(format!(
                "processor {i} decided a value other than the common input"
            ));
        }
        let report = &run.reports[i];
        if report.diagnosis_invocations > bound {
            return Err(format!(
                "processor {i} ran diagnosis {} times, above t(t+1) = {bound}",
                report.diagnosis_invocations
            ));
        }
        if let Some(v) = report.isolated.iter().find(|v| !faulty.contains(v)) {
            return Err(format!("processor {i} isolated fault-free processor {v}"));
        }
    }
    let report = &run.reports[reporter];
    Ok(Counts {
        units: report.generations_completed as u64,
        diag_stages: report.diagnosis_invocations,
        isolated: report.isolated.len() as u64,
        ..sink_counts(&sink.snapshot(), cfg.n, run.rounds)
    })
}
