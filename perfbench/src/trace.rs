//! Instrumentation measured from outside the library: wrappers around
//! the layers' public trait objects (`SmrHooks`, `ProtocolHooks`,
//! `BsbDriver`) that time calls into them, plus the in-memory span
//! store they share.
//!
//! Untraced runs carry exactly one wrapper, [`UnitClock`], on one
//! fault-free node: it stamps the start of every slot (log) or
//! generation (consensus). Traced runs wrap every node.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mvbc_broadcast::BroadcastHooks;
use mvbc_bsb::{BsbConfig, BsbDriver, BsbHooks, BsbInstance, BsbValueSpec, PhaseKingDriver};
use mvbc_core::{DiagGraph, ProtocolHooks};
use mvbc_netsim::{NodeCtx, NodeId};
use mvbc_smr::{HonestReplica, SmrHooks};

/// Start stamps of the first attempt of each slot, or of each
/// generation, at one node.
#[derive(Clone, Default)]
pub struct UnitClock {
    starts: Arc<Mutex<Vec<Instant>>>,
}

impl UnitClock {
    /// Units are first attempted in increasing order, so a unit is new
    /// exactly when its index equals the number stamped so far (a
    /// re-proposed slot attempt is not stamped again).
    fn stamp(&self, unit: u64) {
        let mut starts = lock(&self.starts);
        if unit == starts.len() as u64 {
            starts.push(Instant::now());
        }
    }

    /// The stamps recorded so far.
    pub fn starts(&self) -> Vec<Instant> {
        lock(&self.starts).clone()
    }
}

impl SmrHooks for UnitClock {
    fn slot_hooks(&mut self, slot: u64, i_am_primary: bool) -> Box<dyn BroadcastHooks> {
        self.stamp(slot);
        HonestReplica.slot_hooks(slot, i_am_primary)
    }
}

impl BsbHooks for UnitClock {}

impl ProtocolHooks for UnitClock {
    fn observe_generation_start(&mut self, g: usize, _me: NodeId, _diag: &DiagGraph) {
        self.stamp(g as u64);
    }
}

/// Wall time of each unit at one node: from unit `s`'s start to unit
/// `s + window`'s start (the engine admits `s + window` when `s`
/// commits), or to `end` for the last `window` units. In milliseconds.
pub fn unit_ms(starts: &[Instant], window: usize, end: Instant) -> Vec<f64> {
    (0..starts.len())
        .map(|s| {
            let next = starts.get(s + window).copied().unwrap_or(end);
            next.duration_since(starts[s]).as_secs_f64() * 1e3
        })
        .collect()
}

/// One recorded span. `parent` indexes the same node's span list; the
/// node span itself (index 0) has the run as its parent.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Slot, generation or instance count, depending on `name`.
    pub label: u64,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

/// Everything one node's wrappers record during a traced run.
#[derive(Debug, Default)]
pub struct NodeTrace {
    /// `spans[0]` is the node span once the first event arrived.
    pub spans: Vec<Span>,
    /// The open slot or generation span that BSB calls nest under.
    current: Option<usize>,
    /// Sequential engines close a unit span when the next one opens; a
    /// pipelined node's attempt spans overlap and end with their last
    /// BSB call.
    sequential: bool,
    /// Samples `Threads:` from `/proc/self/status` at every unit start
    /// and BSB call (set on one node only, so the reads stay few).
    count_threads: bool,
    pub unit_starts: Vec<Instant>,
    pub attempts: u64,
    pub bsb_calls: u64,
    pub bsb_instances: u64,
    pub threads_peak: u64,
}

pub type SharedNode = Arc<Mutex<NodeTrace>>;

/// Locks a trace mutex; a poisoned lock means a node thread panicked,
/// which the run's own panic already reports, so the data is still read.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl NodeTrace {
    pub fn shared(sequential: bool, count_threads: bool) -> SharedNode {
        Arc::new(Mutex::new(NodeTrace {
            sequential,
            count_threads,
            ..NodeTrace::default()
        }))
    }

    fn touch(&mut self, at: Instant) {
        if self.spans.is_empty() {
            self.spans.push(Span {
                name: "node",
                label: 0,
                start: at,
                end: at,
                parent: None,
            });
        }
        self.spans[0].end = self.spans[0].end.max(at);
    }

    fn sample_threads(&mut self) {
        if self.count_threads {
            self.threads_peak = self.threads_peak.max(status_field("Threads:"));
        }
    }

    /// Opens the span of a slot attempt or generation `unit` at `at`.
    fn open_unit(&mut self, name: &'static str, unit: u64, at: Instant) {
        self.touch(at);
        self.sample_threads();
        if self.sequential {
            if let Some(open) = self.current {
                self.spans[open].end = at;
            }
        }
        if unit == self.unit_starts.len() as u64 {
            self.unit_starts.push(at);
        }
        self.attempts += 1;
        self.spans.push(Span {
            name,
            label: unit,
            start: at,
            end: at,
            parent: Some(0),
        });
        self.current = Some(self.spans.len() - 1);
    }

    fn bsb_call(&mut self, parent: Option<usize>, start: Instant, end: Instant, instances: u64) {
        self.touch(start);
        self.touch(end);
        self.sample_threads();
        let parent = parent.or(self.current).unwrap_or(0);
        self.spans[parent].end = self.spans[parent].end.max(end);
        self.spans.push(Span {
            name: "bsb",
            label: instances,
            start,
            end,
            parent: Some(parent),
        });
        self.bsb_calls += 1;
        self.bsb_instances += instances;
    }

    /// Wall time this node spent inside BSB calls, in ms. Pipelined
    /// lanes overlap, so this is the union of the call intervals.
    pub fn bsb_busy_ms(&self) -> f64 {
        let mut calls: Vec<(Instant, Instant)> = self
            .spans
            .iter()
            .filter(|s| s.name == "bsb")
            .map(|s| (s.start, s.end))
            .collect();
        calls.sort();
        let mut busy = Duration::ZERO;
        let mut open: Option<(Instant, Instant)> = None;
        for (start, end) in calls {
            open = match open {
                Some((s, e)) if start <= e => Some((s, e.max(end))),
                Some((s, e)) => {
                    busy += e - s;
                    Some((start, end))
                }
                None => Some((start, end)),
            };
        }
        if let Some((s, e)) = open {
            busy += e - s;
        }
        busy.as_secs_f64() * 1e3
    }
}

/// A numeric field of `/proc/self/status` (its first number), or `0`.
pub fn status_field(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// `SmrHooks` wrapper around [`HonestReplica`]: one span per slot
/// attempt.
pub struct TracedReplica(pub SharedNode);

impl SmrHooks for TracedReplica {
    fn slot_hooks(&mut self, slot: u64, i_am_primary: bool) -> Box<dyn BroadcastHooks> {
        lock(&self.0).open_unit("slot", slot, Instant::now());
        HonestReplica.slot_hooks(slot, i_am_primary)
    }
}

/// `ProtocolHooks` wrapper for a fault-free processor: one span per
/// generation, timed at `observe_generation_start`.
pub struct TracedProcessor(pub SharedNode);

impl BsbHooks for TracedProcessor {}

impl ProtocolHooks for TracedProcessor {
    fn observe_generation_start(&mut self, g: usize, _me: NodeId, _diag: &DiagGraph) {
        lock(&self.0).open_unit("generation", g as u64, Instant::now());
    }
}

/// `BsbDriver` wrapper delegating to [`PhaseKingDriver`] (the library
/// default) and timing each call, barrier waits included.
pub struct TracedBsb {
    node: SharedNode,
    /// The slot attempt this driver serves (pipelined logs make one
    /// driver per attempt); `None` nests calls under the node's open
    /// unit.
    parent: Option<usize>,
}

impl TracedBsb {
    /// A driver whose calls nest under whatever unit is open at call time.
    pub fn new(node: SharedNode) -> Self {
        TracedBsb { node, parent: None }
    }

    /// A driver bound to the unit open now (the attempt whose
    /// `slot_hooks` call immediately precedes the driver request).
    pub fn for_current_unit(node: SharedNode) -> Self {
        let parent = lock(&node).current;
        TracedBsb { node, parent }
    }

    fn record(&self, start: Instant, instances: u64) {
        lock(&self.node).bsb_call(self.parent, start, Instant::now(), instances);
    }
}

impl BsbDriver for TracedBsb {
    fn name(&self) -> &'static str {
        PhaseKingDriver.name()
    }

    fn max_tolerated(&self, n: usize) -> usize {
        PhaseKingDriver.max_tolerated(n)
    }

    fn run_batch(
        &mut self,
        ctx: &mut NodeCtx,
        config: &BsbConfig,
        instances: &[BsbInstance],
        hooks: &mut dyn BsbHooks,
    ) -> Vec<bool> {
        let start = Instant::now();
        let out = PhaseKingDriver.run_batch(ctx, config, instances, hooks);
        self.record(start, instances.len() as u64);
        out
    }

    fn run_values(
        &mut self,
        ctx: &mut NodeCtx,
        config: &BsbConfig,
        specs: &[BsbValueSpec],
        hooks: &mut dyn BsbHooks,
    ) -> Vec<Vec<bool>> {
        let start = Instant::now();
        let out = PhaseKingDriver.run_values(ctx, config, specs, hooks);
        self.record(start, specs.iter().map(|s| s.bits as u64).sum());
        out
    }
}

/// Renders every node's spans as CSV rows under one run span (id 0):
/// `id,parent,node,name,label,start_us,end_us`, times relative to the
/// run start.
pub fn spans_csv(run_start: Instant, run_end: Instant, nodes: &[NodeTrace]) -> String {
    let us = |t: Instant| t.saturating_duration_since(run_start).as_secs_f64() * 1e6;
    let mut out = String::from("id,parent,node,name,label,start_us,end_us\n");
    out.push_str(&format!("0,,,run,0,0.0,{:.1}\n", us(run_end)));
    let mut base = 1;
    for (node, trace) in nodes.iter().enumerate() {
        for (i, span) in trace.spans.iter().enumerate() {
            let parent = span.parent.map_or(0, |p| base + p);
            out.push_str(&format!(
                "{},{parent},{node},{},{},{:.1},{:.1}\n",
                base + i,
                span.name,
                span.label,
                us(span.start),
                us(span.end)
            ));
        }
        base += trace.spans.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_is_the_union_of_overlapping_calls() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut node = NodeTrace::default();
        // Two lanes overlapping over [0, 15), then a disjoint call.
        node.bsb_call(None, at(0), at(10), 1);
        node.bsb_call(None, at(5), at(15), 1);
        node.bsb_call(None, at(20), at(25), 1);
        assert!((node.bsb_busy_ms() - 20.0).abs() < 1e-9);
        assert_eq!(node.bsb_calls, 3);
        // The node span covers every call.
        assert_eq!((node.spans[0].start, node.spans[0].end), (at(0), at(25)));
    }

    #[test]
    fn unit_times_run_to_the_unit_a_window_later() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let starts = [at(0), at(10), at(30)];
        assert_eq!(unit_ms(&starts, 1, at(60)), vec![10.0, 20.0, 30.0]);
        assert_eq!(unit_ms(&starts, 2, at(60)), vec![30.0, 50.0, 30.0]);
    }
}
