//! Depth equivalence of the `mvbc-smr` replicated log, plus the
//! degraded-mode endgame.
//!
//! The one log engine's contract is exact: at any depth `W`, under any
//! attack schedule, the *committed* log (per-slot primaries, batches,
//! fallbacks, diagnosis flags, protocol rounds) and the final state
//! digest are identical to the depth-1 run of the same engine, where
//! slots run back to back — pipelining may only cost discarded attempts,
//! never change what commits. The depth-1 runs themselves are pinned to
//! golden values captured from the former dedicated sequential engine.

use mvbc_broadcast::attacks::{EquivocatingSource, FramingAccuser};
use mvbc_broadcast::{BroadcastHooks, NoopBroadcastHooks};
use mvbc_metrics::MetricsSink;
use mvbc_smr::{
    simulate_smr, synthetic_workloads, EquivocatingPrimary, HonestReplica, SilentPrimary,
    SmrConfig, SmrHooks, SmrReport, SmrRun,
};

/// Asserts the fault-free replicas of both runs committed the same log,
/// state, and digest — and agree among themselves.
fn assert_equivalent(seq: &SmrRun, pipe: &SmrRun, honest: &[usize], label: &str) {
    for w in honest.windows(2) {
        assert_eq!(
            pipe.reports[w[0]].agreed_log(),
            pipe.reports[w[1]].agreed_log(),
            "{label}: pipelined replicas {} and {} diverged",
            w[0],
            w[1]
        );
    }
    for &h in honest {
        assert_eq!(
            pipe.reports[h].agreed_log(),
            seq.reports[h].agreed_log(),
            "{label}: replica {h} pipelined log differs from sequential"
        );
        assert_eq!(pipe.reports[h].digest, seq.reports[h].digest, "{label}: digest");
        assert_eq!(pipe.stores[h], seq.stores[h], "{label}: state");
        assert_eq!(
            pipe.reports[h].suspects, seq.reports[h].suspects,
            "{label}: suspect sets"
        );
    }
}

/// The satellite suite: seeded schedules with Byzantine primaries in
/// rotation — an always-equivocator, a silent leader, and a *sleeper*
/// that behaves until its second primary turn — each committed at depths
/// W ∈ {1, 2, 4} with identical batches and `KvStore` digests.
#[test]
fn seeded_attack_schedules_commit_identical_logs_at_depths_1_2_4() {
    let n = 4usize;
    let slots = 10usize;
    for seed in 0..6u64 {
        let byz = (seed % n as u64) as usize;
        let kind = seed % 3;
        let mk_hooks = || -> Vec<Box<dyn SmrHooks>> {
            (0..n)
                .map(|i| -> Box<dyn SmrHooks> {
                    if i != byz {
                        return HonestReplica::boxed();
                    }
                    match kind {
                        0 => Box::new(EquivocatingPrimary::default()),
                        1 => Box::new(SilentPrimary),
                        // Sleeper: honest through its first primary turn,
                        // equivocates on its second.
                        _ => Box::new(EquivocatingPrimary {
                            on_slots: Some(vec![byz as u64 + n as u64]),
                        }),
                    }
                })
                .collect()
        };
        let workloads = || synthetic_workloads(n, 6, seed + 1);
        let cfg = SmrConfig::new(n, 1, slots, 2).unwrap();
        let seq = simulate_smr(&cfg, workloads(), mk_hooks(), MetricsSink::new());
        let honest: Vec<usize> = (0..n).filter(|&i| i != byz).collect();
        for w in [2usize, 4] {
            let label = format!("seed {seed} kind {kind} W {w}");
            let pipe_cfg = cfg.clone().with_pipeline(w);
            let pipe = simulate_smr(&pipe_cfg, workloads(), mk_hooks(), MetricsSink::new());
            assert_equivalent(&seq, &pipe, &honest, &label);
        }
    }
}

/// Honest pipelining at n = 7, t = 2: full-depth windows cut the round
/// count by roughly the depth while committing the identical log.
#[test]
fn honest_pipeline_cuts_rounds_without_changing_the_log() {
    let n = 7usize;
    let cfg = SmrConfig::new(n, 2, 12, 4).unwrap();
    let workloads = || synthetic_workloads(n, 8, 3);
    let hooks = |_: ()| (0..n).map(|_| HonestReplica::boxed()).collect();
    let seq = simulate_smr(&cfg, workloads(), hooks(()), MetricsSink::new());
    let pipe_cfg = cfg.clone().with_pipeline(4);
    let pipe = simulate_smr(&pipe_cfg, workloads(), hooks(()), MetricsSink::new());
    let all: Vec<usize> = (0..n).collect();
    assert_equivalent(&seq, &pipe, &all, "honest n=7");
    assert!(pipe.reports.iter().all(|r| r.restarts == 0));
    assert!(
        pipe.rounds * 3 <= seq.rounds,
        "depth 4 should cut rounds by ~4x, got {} vs {}",
        pipe.rounds,
        seq.rounds
    );
}

/// Two simultaneous Byzantine replicas at n = 7, t = 2 (an equivocator
/// and a silent leader), pipelined vs sequential.
#[test]
fn two_byzantine_replicas_pipeline_equivalently() {
    let n = 7usize;
    let byz_eq = 1usize;
    let byz_silent = 4usize;
    let mk_hooks = || -> Vec<Box<dyn SmrHooks>> {
        (0..n)
            .map(|i| -> Box<dyn SmrHooks> {
                if i == byz_eq {
                    Box::new(EquivocatingPrimary::default())
                } else if i == byz_silent {
                    Box::new(SilentPrimary)
                } else {
                    HonestReplica::boxed()
                }
            })
            .collect()
    };
    let cfg = SmrConfig::new(n, 2, 10, 2).unwrap();
    let workloads = || synthetic_workloads(n, 4, 9);
    let seq = simulate_smr(&cfg, workloads(), mk_hooks(), MetricsSink::new());
    let pipe_cfg = cfg.clone().with_pipeline(4);
    let pipe = simulate_smr(&pipe_cfg, workloads(), mk_hooks(), MetricsSink::new());
    let honest: Vec<usize> = (0..n).filter(|&i| i != byz_eq && i != byz_silent).collect();
    assert_equivalent(&seq, &pipe, &honest, "two byzantine");
    // Both attacks were caught and excluded in both modes.
    let r = &seq.reports[honest[0]];
    assert!(r.suspects.contains(&byz_eq) && r.suspects.contains(&byz_silent));
}

/// A colluding team member that frames sitting primaries on scheduled
/// slots (each frame burns one accuser edge — at most `t` safe frames per
/// accuser, and every isolation of a teammate erodes the remaining
/// budget, so all frames are spent *before* any teammate blows up) and
/// equivocates on scheduled primary turns of its own, behaving honestly
/// otherwise.
struct ColludingByzantine {
    /// Slots on which to frame the sitting primary (when not leading).
    frame_slots: Vec<u64>,
    /// Own primary turns on which to equivocate (honest otherwise).
    equivocate_slots: Vec<u64>,
}

impl SmrHooks for ColludingByzantine {
    fn slot_hooks(&mut self, slot: u64, i_am_primary: bool) -> Box<dyn BroadcastHooks> {
        if i_am_primary && self.equivocate_slots.contains(&slot) {
            Box::new(EquivocatingSource)
        } else if !i_am_primary && self.frame_slots.contains(&slot) {
            Box::new(FramingAccuser)
        } else {
            NoopBroadcastHooks::boxed()
        }
    }
}

/// The choreography (n = 10, t = 3, replicas 7-9 colluding): as caught
/// primaries leave the rotation, the eligible pool shrinks
/// deterministically, so the team schedules one catch per honest-led
/// slot — frames on the seven honest primaries (slots 0, 1, 2 by replica
/// 7; slots 3, 6, 10 by replica 8; slot 12 by replica 9), honest
/// behaviour on their own mid-campaign turns (so no early isolation
/// wastes frame budget), then end-game equivocations on slots 13 and 14.
/// After slot 14 every active replica is a suspect: degraded mode.
fn degraded_scenario(pipeline: usize) -> (SmrRun, Vec<usize>) {
    let n = 10usize;
    let t = 3usize;
    let byz: Vec<usize> = vec![7, 8, 9];
    let slots = 18usize;
    let mut cfg = SmrConfig::new(n, t, slots, 1).unwrap();
    cfg = cfg.with_pipeline(pipeline);
    let hooks: Vec<Box<dyn SmrHooks>> = (0..n)
        .map(|i| -> Box<dyn SmrHooks> {
            match i {
                7 => Box::new(ColludingByzantine {
                    frame_slots: vec![0, 1, 2],
                    equivocate_slots: vec![],
                }),
                8 => Box::new(ColludingByzantine {
                    frame_slots: vec![3, 6, 10],
                    equivocate_slots: vec![13],
                }),
                9 => Box::new(ColludingByzantine {
                    frame_slots: vec![12],
                    equivocate_slots: vec![14],
                }),
                _ => HonestReplica::boxed(),
            }
        })
        .collect();
    let run = simulate_smr(&cfg, synthetic_workloads(n, 4, 5), hooks, MetricsSink::new());
    let honest: Vec<usize> = (0..n).filter(|i| !byz.contains(i)).collect();
    (run, honest)
}

#[test]
fn framing_team_drives_the_log_into_safe_degraded_mode() {
    let (run, honest) = degraded_scenario(1);
    for w in honest.windows(2) {
        assert_eq!(run.reports[w[0]].agreed_log(), run.reports[w[1]].agreed_log());
        assert_eq!(run.stores[w[0]], run.stores[w[1]]);
    }
    let r = &run.reports[honest[0]];
    assert_eq!(r.slots.len(), 18, "degraded mode keeps the log live for empty slots");

    // The endgame is reached: every replica still active is a suspect.
    let active: Vec<usize> = (0..10).filter(|v| !r.isolated.contains(v)).collect();
    assert!(
        active.iter().all(|v| r.suspects.contains(v)),
        "not fully degraded: active {active:?}, suspects {:?}",
        r.suspects
    );

    // Degraded slots have the agreed-empty signature (no broadcast ran),
    // and once entered, the mode is permanent.
    let first_degraded = r
        .slots
        .iter()
        .position(|s| s.fallback && !s.diagnosis_ran && s.rounds == 0)
        .expect("the schedule must reach degraded mode");
    for s in &r.slots[first_degraded..] {
        assert!(s.fallback && s.committed.is_empty(), "slot {} broke degraded mode", s.slot);
        assert!(!s.diagnosis_ran && s.rounds == 0, "slot {} ran a broadcast", s.slot);
    }
    assert!(first_degraded <= 15, "degradation must set in once every replica is caught");

    // Safety of the fix: once a replica is caught (its slot fell back
    // with a broadcast), it never again leads a slot that commits.
    for (i, s) in r.slots.iter().enumerate() {
        if s.fallback && s.diagnosis_ran {
            assert!(
                r.slots[i + 1..].iter().all(|later| later.fallback || later.primary != s.primary),
                "caught primary {} led committing slot after slot {}",
                s.primary,
                s.slot
            );
        }
    }
}

#[test]
fn degraded_mode_pipelines_equivalently() {
    let (seq, honest) = degraded_scenario(1);
    let (pipe, _) = degraded_scenario(3);
    assert_equivalent(&seq, &pipe, &honest, "degraded endgame");
}

// --- Golden values of the depth-1 log ------------------------------------

/// FNV-1a over every field of an agreed log (slot, primary, committed
/// commands, fallback and diagnosis flags, rounds), so a pin catches any
/// change to what commits or when.
fn agreed_log_hash(report: &SmrReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in report.agreed_log() {
        eat(s.slot);
        eat(s.primary as u64);
        eat(s.committed.len() as u64);
        for c in s.committed {
            eat(u64::from(c.key) << 32 | u64::from(c.value));
        }
        eat(u64::from(s.fallback) << 1 | u64::from(s.diagnosis_ran));
        eat(s.rounds);
    }
    h
}

/// One schedule's pinned outcome, shared by every fault-free replica.
struct Golden {
    label: &'static str,
    digest: u64,
    fallback_slots: u64,
    suspects: &'static [usize],
    rounds: u64,
    log_hash: u64,
}

fn check_golden(run: &SmrRun, honest: &[usize], g: &Golden) {
    assert_eq!(run.rounds, g.rounds, "{}: total rounds", g.label);
    for &h in honest {
        let r = &run.reports[h];
        assert_eq!(r.digest, g.digest, "{}: replica {h} digest", g.label);
        assert_eq!(r.fallback_slots, g.fallback_slots, "{}: replica {h} fallbacks", g.label);
        assert_eq!(r.suspects, g.suspects, "{}: replica {h} suspects", g.label);
        assert_eq!(agreed_log_hash(r), g.log_hash, "{}: replica {h} agreed log", g.label);
    }
}

/// The hooks of `seeded_attack_schedules_commit_identical_logs_at_depths_1_2_4`
/// for one seed: kind 0 always equivocates, kind 1 is a silent leader,
/// kind 2 a sleeper that equivocates on its second primary turn.
fn seeded_schedule_hooks(n: usize, seed: u64) -> Vec<Box<dyn SmrHooks>> {
    let byz = (seed % n as u64) as usize;
    (0..n)
        .map(|i| -> Box<dyn SmrHooks> {
            if i != byz {
                return HonestReplica::boxed();
            }
            match seed % 3 {
                0 => Box::new(EquivocatingPrimary::default()),
                1 => Box::new(SilentPrimary),
                _ => Box::new(EquivocatingPrimary {
                    on_slots: Some(vec![byz as u64 + n as u64]),
                }),
            }
        })
        .collect()
}

/// Golden values of the attack schedules above at depth 1, captured from
/// the former dedicated sequential engine before it was deleted. Depth 1
/// is now the smallest window of the one pipelined engine, so these pins
/// are what keep the depth-1 reference of the equivalence tests honest.
#[test]
fn depth_1_logs_match_the_pinned_sequential_engine() {
    const SEEDED: [Golden; 6] = [
        Golden {
            label: "seed 0 (equivocator)",
            digest: 0x5c75_81b6_b4e4_ce87,
            fallback_slots: 1,
            suspects: &[0],
            rounds: 354,
            log_hash: 0x4092_c51d_72ce_3bb5,
        },
        Golden {
            label: "seed 1 (silent)",
            digest: 0xc587_cde3_62ed_1917,
            fallback_slots: 1,
            suspects: &[1],
            rounds: 354,
            log_hash: 0xb3fc_198e_f711_8489,
        },
        Golden {
            label: "seed 2 (sleeper)",
            digest: 0x5b9f_12b7_9a69_c746,
            fallback_slots: 1,
            suspects: &[2],
            rounds: 354,
            log_hash: 0xf3ce_9959_bde7_5b7f,
        },
        Golden {
            label: "seed 3 (equivocator)",
            digest: 0x2cee_33f7_7777_92a0,
            fallback_slots: 1,
            suspects: &[3],
            rounds: 381,
            log_hash: 0x1dae_3d21_99f3_513b,
        },
        Golden {
            label: "seed 4 (silent)",
            digest: 0x7ff9_5ec4_3088_1bba,
            fallback_slots: 1,
            suspects: &[0],
            rounds: 354,
            log_hash: 0xf4ab_58be_121d_4266,
        },
        Golden {
            label: "seed 5 (sleeper)",
            digest: 0x7124_fce1_b098_d42c,
            fallback_slots: 1,
            suspects: &[1],
            rounds: 381,
            log_hash: 0xdc13_afcf_38ae_09e5,
        },
    ];
    let n = 4usize;
    for (seed, golden) in (0..6u64).zip(&SEEDED) {
        let cfg = SmrConfig::new(n, 1, 10, 2).unwrap();
        let run = simulate_smr(
            &cfg,
            synthetic_workloads(n, 6, seed + 1),
            seeded_schedule_hooks(n, seed),
            MetricsSink::new(),
        );
        let byz = (seed % n as u64) as usize;
        let honest: Vec<usize> = (0..n).filter(|&i| i != byz).collect();
        check_golden(&run, &honest, golden);
    }

    let n = 7usize;
    let hooks = (0..n)
        .map(|i| -> Box<dyn SmrHooks> {
            match i {
                1 => Box::new(EquivocatingPrimary::default()),
                4 => Box::new(SilentPrimary),
                _ => HonestReplica::boxed(),
            }
        })
        .collect();
    let cfg = SmrConfig::new(n, 2, 10, 2).unwrap();
    let run = simulate_smr(&cfg, synthetic_workloads(n, 4, 9), hooks, MetricsSink::new());
    let honest: Vec<usize> = (0..n).filter(|&i| i != 1 && i != 4).collect();
    check_golden(
        &run,
        &honest,
        &Golden {
            label: "two byzantine",
            digest: 0x731a_c95b_4715_4e18,
            fallback_slots: 2,
            suspects: &[1, 4],
            rounds: 504,
            log_hash: 0x7bba_122f_c868_70a9,
        },
    );

    let (run, honest) = degraded_scenario(1);
    check_golden(
        &run,
        &honest,
        &Golden {
            label: "degraded endgame",
            digest: 0xb7f1_9c39_5e87_9f3e,
            fallback_slots: 12,
            suspects: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            rounds: 966,
            log_hash: 0x0af0_98bf_3a76_5aa0,
        },
    );
}
