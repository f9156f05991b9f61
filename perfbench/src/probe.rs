//! Layer probes at a workload's geometry, run at library defaults (no
//! codec-thread, per-code thread or lane-pool override anywhere).

use std::hint::black_box;
use std::time::Instant;

use mvbc_metrics::MetricsSink;
use mvbc_netsim::{run_simulation, NodeCtx, NodeLogic, SimConfig};
use mvbc_rscode::StripedCode;

use crate::stats::median;

/// Per-round wall time of `rounds` rounds in which every node sends
/// `payload` bytes (0 = nothing) to every other node, in microseconds:
/// the median gap between consecutive `end_round` returns at node 0, so
/// thread start-up and teardown are excluded.
pub fn round_us(n: usize, rounds: usize, payload: usize) -> f64 {
    let logics: Vec<NodeLogic<Vec<f64>>> = (0..n)
        .map(|_| {
            Box::new(move |ctx: &mut NodeCtx| {
                let mut stamps = Vec::with_capacity(rounds + 1);
                for _ in 0..=rounds {
                    if payload > 0 {
                        let me = ctx.id();
                        for to in (0..ctx.n()).filter(|&to| to != me) {
                            // A fresh buffer per recipient, as the
                            // protocols serialise a symbol per send.
                            ctx.send(to, "probe", vec![0xA5u8; payload], payload as u64 * 8);
                        }
                    }
                    black_box(ctx.end_round());
                    stamps.push(Instant::now());
                }
                stamps
                    .windows(2)
                    .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
                    .collect()
            }) as NodeLogic<Vec<f64>>
        })
        .collect();
    let result = run_simulation(SimConfig::new(n), MetricsSink::new(), logics);
    median(&result.outputs[0])
}

/// Per-call codec times at one geometry, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecTimes {
    pub encode_us: f64,
    pub check_us: f64,
    pub decode_us: f64,
}

/// Times `StripedCode::c2t(n, t, gen_bytes)` the way a generation uses
/// it: encode one value, check and decode `n - t` of its symbols.
pub fn codec(n: usize, t: usize, gen_bytes: usize, seed: u64) -> Result<CodecTimes, String> {
    let code = StripedCode::c2t(n, t, gen_bytes).map_err(|e| format!("codec geometry: {e}"))?;
    let mut rng = crate::workload::SplitMix(seed);
    let value: Vec<u8> = (0..gen_bytes).map(|_| rng.next() as u8).collect();
    let symbols = code.encode_value(&value).map_err(|e| e.to_string())?;
    let picks: Vec<_> = symbols.into_iter().enumerate().take(n - t).collect();
    if code.decode_value(&picks).map_err(|e| e.to_string())? != value {
        return Err("codec probe: decode does not return the encoded value".into());
    }
    if !code.is_consistent(&picks).map_err(|e| e.to_string())? {
        return Err("codec probe: a codeword's symbols read as inconsistent".into());
    }
    Ok(CodecTimes {
        encode_us: per_call_us(|| {
            black_box(code.encode_value(black_box(&value)).ok());
        }),
        check_us: per_call_us(|| {
            black_box(code.is_consistent(black_box(&picks)).ok());
        }),
        decode_us: per_call_us(|| {
            black_box(code.decode_value(black_box(&picks)).ok());
        }),
    })
}

/// Median per-call time over 7 batches, each batch long enough
/// (about 20 ms) that timer resolution does not matter.
fn per_call_us(mut call: impl FnMut()) -> f64 {
    let start = Instant::now();
    call();
    let once = start.elapsed().as_secs_f64();
    let batch = ((0.02 / once.max(1e-9)) as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                call();
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&samples)
}
