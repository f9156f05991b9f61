//! Synchronous fully-connected network simulator.
//!
//! Implements the system model of Liang & Vaidya (PODC 2011) §1:
//!
//! - a synchronous network of `n` processors with common knowledge of
//!   processor identities,
//! - a pair of directed point-to-point channels between every two
//!   processors, and
//! - *authenticated channels*: when a processor receives a message on such
//!   a channel it knows which processor sent it (the simulator stamps the
//!   true sender on every delivery; a Byzantine processor can lie about
//!   content but never about its identity).
//!
//! Each processor runs on its own OS thread and proceeds in lockstep
//! rounds: messages sent during round `r` (via [`NodeCtx::send`]) are
//! delivered to every recipient at the end of round `r` (from
//! [`NodeCtx::end_round`]). There is no coordinator thread. The nodes
//! share one round exchange: each `end_round`, and each node's
//! termination, is an *arrival*, and the arrival that completes a round
//! routes it in place — in sender-id order, whichever thread that is —
//! feeds the [`MetricsSink`] that experiments use to measure
//! communication complexity, and hands every still-running node its
//! inbox through that node's own one-slot handoff. A waiting node
//! yield-spins briefly and then parks, so a round costs no channel hop
//! and wakes only the nodes it delivers to.
//!
//! # Scheduling policies
//!
//! The exchange runs one of two [`SchedulingPolicy`]s (configured via
//! [`SimConfig::with_policy`]):
//!
//! - [`SchedulingPolicy::RoundBarrier`] (the default): the classic
//!   lockstep model above, where the round counter *is* the clock — the
//!   virtual time of round `r`'s deliveries is simply `r`. This path is
//!   byte-identical to the pre-event-driven simulator: traces, digests
//!   and metrics do not change.
//! - [`SchedulingPolicy::EventDriven`]: timed rounds over a
//!   [`NetModel`]. Every node keeps its own virtual clock, each message
//!   is assigned a per-link latency (seeded, FIFO per directed link) and
//!   delivered through a discrete-event queue ([`events::EventQueue`]),
//!   and a node's round ends at the arrival of its last round message.
//!   Round *semantics* are unchanged — every round-`r` message still
//!   reaches its recipient within the recipient's round `r`, so protocol
//!   code runs unmodified — but [`NodeCtx::vtime`], [`Inbox::vtime`] and
//!   the trace's virtual timestamps now measure the latency shape of a
//!   WAN deployment, including partitions that form and heal mid-run.
//!
//! # Examples
//!
//! ```
//! use mvbc_netsim::{run_simulation, NodeCtx, SimConfig};
//! use mvbc_metrics::MetricsSink;
//!
//! // Two nodes exchange their ids and report the peer's id.
//! let metrics = MetricsSink::new();
//! let mk = |_: usize| {
//!     Box::new(move |ctx: &mut NodeCtx| {
//!         let peer = 1 - ctx.id();
//!         ctx.send(peer, "hello", vec![ctx.id() as u8], 8);
//!         let mut inbox = ctx.end_round();
//!         inbox.take(peer, "hello").map(|b| b[0] as usize)
//!     }) as Box<dyn FnOnce(&mut NodeCtx) -> Option<usize> + Send>
//! };
//! let out = run_simulation(SimConfig::new(2), metrics, (0..2).map(mk).collect());
//! assert_eq!(out.outputs, vec![Some(1), Some(0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod events;
mod handoff;
pub mod lanepool;
pub mod lanes;
pub mod net;
pub mod trace;

use std::any::Any;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use bytes::Bytes;
use mvbc_metrics::{MetricsSink, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use events::EventQueue;
use handoff::{Handoff, Missed};

pub use events::VirtualTime;
pub use mvbc_metrics::NodeId;
pub use net::{
    LinkModel, NetModel, Partition, PartitionBehavior, SchedulingPolicy, Topology,
};

/// Default for [`SimConfig::round_timeout`]: how long a parked node
/// waits, with no node arriving at the round exchange, before it
/// declares the simulation wedged. Protocol bugs (mismatched `end_round`
/// counts between nodes) surface as this panic instead of a silent hang.
pub const DEFAULT_ROUND_TIMEOUT: Duration = Duration::from_secs(60);

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of processors.
    pub n: usize,
    /// Abort the run if it exceeds this many rounds (guards against
    /// run-away protocols in tests). `None` disables the check.
    pub max_rounds: Option<u64>,
    /// How long a parked node waits for its round inbox, with no other
    /// node arriving at the round exchange meanwhile, before it declares
    /// the simulation wedged and releases every other waiting node. Long
    /// multi-slot runs on slow machines may need more than
    /// [`DEFAULT_ROUND_TIMEOUT`]. This is a *wall-clock* guard against
    /// protocol bugs; for a *virtual-time* budget, see
    /// [`SimConfig::max_vtime`].
    pub round_timeout: Duration,
    /// How the round exchange schedules rounds (see the crate docs).
    pub policy: SchedulingPolicy,
    /// Abort the run if the virtual clock exceeds this many ticks
    /// (guards event-driven runs the way `max_rounds` guards round
    /// counts). `None` disables the check.
    pub max_vtime: Option<VirtualTime>,
}

impl SimConfig {
    /// Configuration with the default round limit (1 million), round
    /// timeout ([`DEFAULT_ROUND_TIMEOUT`]), and the
    /// [`SchedulingPolicy::RoundBarrier`] policy.
    pub fn new(n: usize) -> Self {
        SimConfig {
            n,
            max_rounds: Some(1_000_000),
            round_timeout: DEFAULT_ROUND_TIMEOUT,
            policy: SchedulingPolicy::RoundBarrier,
            max_vtime: None,
        }
    }

    /// Returns the configuration with a different wedge-detection timeout.
    pub fn with_round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Returns the configuration with a different scheduling policy.
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns the configuration with a virtual-time budget.
    pub fn with_max_vtime(mut self, limit: VirtualTime) -> Self {
        self.max_vtime = Some(limit);
        self
    }
}

/// Interns `"{scope}.{suffix}"` as a `'static` message/metric tag.
///
/// Protocols that run many sequential executions inside one simulation
/// (e.g. the `mvbc-smr` replicated log) scope their tags per execution so
/// a Byzantine processor sending a message early or late cannot have it
/// mistaken for the like-tagged message of an adjacent slot.
pub fn scoped_tag(scope: &str, suffix: &str) -> &'static str {
    mvbc_metrics::intern_tag(&format!("{scope}.{suffix}"))
}

/// Interns the per-slot tag scope `"{proto}.slot{slot}"` (see
/// [`scoped_tag`]).
pub fn slot_scope(proto: &str, slot: u64) -> &'static str {
    mvbc_metrics::intern_tag(&format!("{proto}.slot{slot}"))
}

/// One delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// True sender identity (authenticated channel).
    pub from: NodeId,
    /// Protocol tag; sub-protocols use distinct tags to multiplex a round.
    pub tag: &'static str,
    /// Opaque payload.
    pub payload: Bytes,
    /// Virtual delivery time, stamped at routing (0
    /// while the message is still queued on the sender). Under the
    /// round-barrier policy this is the round counter; under the
    /// event-driven policy it is the message's arrival tick.
    pub at: VirtualTime,
}

/// A drained inbox buffer (`n` per-sender message vectors, emptied but
/// with capacity retained).
type InboxShell = Vec<Vec<Message>>;

/// Recycling pool for inbox buffers, shared between round routing
/// (which takes a shell per node per round) and the node-side [`Inbox`]
/// drops (which return them). Without the pool, routing allocated
/// `vec![Vec::new(); n]` per node per round; with it, a steady-state
/// simulation reuses the same `2n` shells — and their grown inner
/// capacities — for the whole run.
#[derive(Debug, Default)]
struct InboxPool {
    shells: std::sync::Mutex<Vec<InboxShell>>,
    /// Maximum shells retained (`2n`: one in flight + one draining per
    /// node). Returns beyond the cap are dropped, bounding memory even
    /// if a protocol clones or hoards inboxes.
    cap: usize,
}

impl InboxPool {
    fn with_cap(cap: usize) -> Arc<Self> {
        Arc::new(InboxPool {
            shells: std::sync::Mutex::new(Vec::with_capacity(cap)),
            cap,
        })
    }

    fn take(&self, n: usize) -> InboxShell {
        let shell = self
            .shells
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        match shell {
            Some(mut shell) => {
                shell.resize_with(n, Vec::new);
                shell
            }
            None => vec![Vec::new(); n],
        }
    }

    fn put(&self, mut shell: InboxShell) {
        for msgs in &mut shell {
            msgs.clear();
        }
        let mut shells = self
            .shells
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if shells.len() < self.cap {
            shells.push(shell);
        }
    }
}

/// All messages delivered to one node at one round boundary, grouped by
/// sender.
///
/// Inboxes delivered by the simulator carry a handle to the
/// simulation's buffer pool: dropping the inbox (however the protocol
/// code is structured) returns its buffers for reuse in a later round.
#[derive(Debug, Default)]
pub struct Inbox {
    by_sender: InboxShell,
    pool: Option<Arc<InboxPool>>,
    vtime: VirtualTime,
}

impl Clone for Inbox {
    fn clone(&self) -> Self {
        // Clones are detached from the pool: only the original returns
        // its (capacity-grown) buffers.
        Inbox {
            by_sender: self.by_sender.clone(),
            pool: None,
            vtime: self.vtime,
        }
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.by_sender));
        }
    }
}

impl Inbox {
    fn pooled(n: usize, pool: &Arc<InboxPool>) -> Self {
        Inbox {
            by_sender: pool.take(n),
            pool: Some(pool.clone()),
            vtime: 0,
        }
    }

    /// The virtual time at which this round ended for the recipient:
    /// the round counter under the round-barrier policy, the arrival
    /// tick of the round's last message under the event-driven policy.
    pub fn vtime(&self) -> VirtualTime {
        self.vtime
    }

    /// Messages received from `sender`, in send order.
    pub fn from_sender(&self, sender: NodeId) -> &[Message] {
        &self.by_sender[sender]
    }

    /// Removes and returns the first message from `sender` carrying `tag`.
    ///
    /// Returns `None` when no such message arrived — Byzantine silence and
    /// "message not sent" are indistinguishable, exactly as in the model.
    pub fn take(&mut self, sender: NodeId, tag: &str) -> Option<Bytes> {
        let msgs = &mut self.by_sender[sender];
        let idx = msgs.iter().position(|m| m.tag == tag)?;
        Some(msgs.remove(idx).payload)
    }

    /// Drains every message (senders in id order, send order within a
    /// sender), leaving the inbox empty but its buffers intact for
    /// recycling. Each [`Message`] still names its authenticated sender.
    pub fn drain_messages(&mut self) -> impl Iterator<Item = Message> + '_ {
        self.by_sender.iter_mut().flat_map(|msgs| msgs.drain(..))
    }

    /// Total number of messages in the inbox.
    pub fn len(&self) -> usize {
        self.by_sender.iter().map(Vec::len).sum()
    }

    /// True when no messages were delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Outgoing {
    to: NodeId,
    msg: Message,
    logical_bits: u64,
}

/// Where a [`NodeCtx`] completes its rounds.
enum Link {
    /// A simulation node: rounds complete at the run's shared exchange.
    Node(Arc<Exchange>),
    /// A lane: rounds go through its [`lanes::LaneMux`].
    Lane(Arc<lanes::LaneLink>),
}

/// Handle through which node logic interacts with the network.
///
/// See the crate docs for the round semantics.
pub struct NodeCtx {
    id: NodeId,
    n: usize,
    round: u64,
    vtime: VirtualTime,
    pending: Vec<Outgoing>,
    link: Link,
    metrics: MetricsSink,
}

impl fmt::Debug for NodeCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeCtx")
            .field("id", &self.id)
            .field("n", &self.n)
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl NodeCtx {
    /// This processor's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of processors in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This processor's virtual clock: the end time of its last
    /// completed round (0 before the first [`NodeCtx::end_round`]).
    /// Under the round-barrier policy this equals [`NodeCtx::round`];
    /// under the event-driven policy it is the node's position on the
    /// simulation's virtual clock, in ticks.
    pub fn vtime(&self) -> VirtualTime {
        self.vtime
    }

    /// Shared metrics sink (e.g. for protocol-level custom counters).
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Queues a message for delivery at the end of the current round.
    ///
    /// `logical_bits` is the message's size under the algorithm's own
    /// accounting (see [`mvbc_metrics`]); it is what the communication
    /// complexity experiments sum up.
    ///
    /// Sending to self is allowed and delivered like any other message.
    ///
    /// # Panics
    ///
    /// Panics when `to >= n`.
    pub fn send(&mut self, to: NodeId, tag: &'static str, payload: impl Into<Bytes>, logical_bits: u64) {
        assert!(to < self.n, "recipient {to} out of range (n = {})", self.n);
        let payload = payload.into();
        self.metrics
            .record_send(self.id, tag, logical_bits, payload.len() as u64);
        self.pending.push(Outgoing {
            to,
            msg: Message {
                from: self.id,
                tag,
                payload,
                at: 0,
            },
            logical_bits,
        });
    }

    /// Completes the current round: flushes queued messages and blocks
    /// until every other processor has completed the round too, then
    /// returns the messages delivered to this processor.
    ///
    /// # Panics
    ///
    /// Panics, with the root cause's message, when the run has failed:
    /// another node panicked, a round or virtual-time limit was hit, or
    /// the run wedged (see [`SimConfig::round_timeout`]).
    pub fn end_round(&mut self) -> Inbox {
        let outgoing = std::mem::take(&mut self.pending);
        let inbox = match &self.link {
            Link::Node(exchange) => exchange.submit(self.id, outgoing),
            Link::Lane(lane) => lane.end_round(outgoing),
        };
        self.round += 1;
        self.vtime = inbox.vtime;
        inbox
    }
}

/// The boxed per-node logic closure executed by [`run_simulation`].
pub type NodeLogic<O> = Box<dyn FnOnce(&mut NodeCtx) -> O + Send>;

/// Routing-side state of an event-driven run.
struct EventState {
    model: NetModel,
    /// Per-node dispatch time of the *next* round: its last round-end
    /// plus the model's compute ticks.
    clocks: Vec<VirtualTime>,
    /// Last delivery tick per directed link `[from][to]`: sampled
    /// latencies are clamped to it so links stay FIFO under jitter and a
    /// recipient's per-sender inbox order always equals send order.
    link_last: Vec<Vec<VirtualTime>>,
    /// Seeded jitter stream ([`NetModel::seed`]).
    rng: StdRng,
}

/// The text of a panic payload (`panic!` produces a `String` or a
/// `&'static str`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
}

/// Unwinds a node or lane that a failed run released. `resume_unwind`
/// skips the panic hook: the root cause was reported where it happened,
/// and the run's caller gets it again from [`run_simulation`].
fn release(why: &str) -> ! {
    std::panic::resume_unwind(Box::new(why.to_owned()))
}

/// The state behind the exchange's one lock.
struct RoundState {
    /// This round's submissions, by sender id.
    submissions: Vec<Option<Vec<Outgoing>>>,
    active: Vec<bool>,
    active_count: usize,
    /// Active nodes that have neither submitted nor finished this round.
    outstanding: usize,
    /// Arrivals over the whole run. A parked node that finds it
    /// unchanged after a full [`SimConfig::round_timeout`] declares the
    /// run wedged.
    arrivals: u64,
    rounds: u64,
    /// The simulation's virtual clock: the latest round-end tick routed
    /// so far. Under the round-barrier policy it tracks the round
    /// counter exactly.
    vtime_now: VirtualTime,
    event_state: Option<EventState>,
    /// The run's first failure; every later arrival and wait ends with it.
    error: Option<Arc<str>>,
}

/// The round barrier shared by every node of one simulation.
///
/// Each `end_round` and each node's termination is an arrival. The
/// arrival that completes a round routes it on its own thread, under the
/// lock, and then puts every still-active node's inbox into that node's
/// handoff.
struct Exchange {
    config: SimConfig,
    metrics: MetricsSink,
    trace: Option<trace::TraceSink>,
    telemetry: Option<Telemetry>,
    pool: Arc<InboxPool>,
    state: Mutex<RoundState>,
    /// One inbox handoff per node.
    inboxes: Vec<Handoff<Inbox>>,
}

impl Exchange {
    fn lock(&self) -> MutexGuard<'_, RoundState> {
        // Routing runs under `catch_unwind` and every other update is a
        // single step, so the state is valid even if a holder panicked.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Node `id`'s `end_round`: submits its messages and waits for its
    /// inbox.
    fn submit(&self, id: NodeId, outgoing: Vec<Outgoing>) -> Inbox {
        let mut state = self.lock();
        if let Some(why) = state.error.clone() {
            drop(state);
            release(&why);
        }
        state.submissions[id] = Some(outgoing);
        let mut seen = self.arrive(state);
        loop {
            match self.inboxes[id].take(Some(self.config.round_timeout)) {
                Ok(inbox) => return inbox,
                Err(Missed::Failed(why)) => release(&why),
                Err(Missed::TimedOut) => self.check_wedge(&mut seen),
            }
        }
    }

    /// Node `id` terminated: its closure returned, or panicked with
    /// `panic`. A panic fails the run.
    fn finish(&self, id: NodeId, panic: Option<&str>) {
        let mut state = self.lock();
        if state.error.is_some() {
            return;
        }
        if let Some(msg) = panic {
            self.fail(state, format!("node {id} panicked: {msg}"));
            return;
        }
        state.active[id] = false;
        state.active_count -= 1;
        self.arrive(state);
    }

    /// Counts one arrival and returns the run's arrival count. When it
    /// completes the round, routes it and delivers the inboxes (after
    /// releasing the lock, so woken nodes never queue behind it).
    fn arrive(&self, mut state: MutexGuard<'_, RoundState>) -> u64 {
        state.arrivals += 1;
        state.outstanding -= 1;
        let arrivals = state.arrivals;
        if state.outstanding > 0 || state.active_count == 0 {
            return arrivals;
        }
        let submissions = state.submissions.iter_mut().map(Option::take).collect();
        // A routing panic (a round or virtual-time limit) fails the run
        // instead of poisoning the lock under the waiting nodes.
        let routed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.route(&mut state, submissions)
        }));
        match routed {
            Ok(inboxes) => {
                state.outstanding = state.active_count;
                let deliveries: Vec<(NodeId, Inbox)> = inboxes
                    .into_iter()
                    .enumerate()
                    .filter(|&(id, _)| state.active[id])
                    .collect();
                drop(state);
                for (id, inbox) in deliveries {
                    self.inboxes[id].put(inbox);
                }
            }
            Err(payload) => self.fail(state, panic_message(&*payload).to_owned()),
        }
        arrivals
    }

    /// Routes one completed round: recipients see messages grouped by
    /// sender id. Then records the round and enforces the run's limits.
    fn route(&self, state: &mut RoundState, submissions: Vec<Option<Vec<Outgoing>>>) -> Vec<Inbox> {
        let (n, config, metrics, trace, telemetry) =
            (self.config.n, &self.config, &self.metrics, &self.trace, &self.telemetry);
        let RoundState {
            active,
            rounds,
            vtime_now,
            event_state,
            ..
        } = state;
        *rounds += 1;
        let rounds = *rounds;
        if let Some(limit) = config.max_rounds {
            assert!(rounds <= limit, "round limit {limit} exceeded");
        }
        metrics.record_round();
        // Route: recipients see messages grouped by sender id.
        // Buffers come from the recycling pool: nodes return them
        // when they drop the previous round's inbox.
        let mut inboxes: Vec<Inbox> = (0..n).map(|_| Inbox::pooled(n, &self.pool)).collect();
        match event_state {
            // Round barrier: deliveries iterate submissions in
            // sender-id order and the round counter is the clock.
            // This arm must stay byte-identical to the pre-policy
            // simulator (golden digests pin it).
            None => {
                *vtime_now = rounds;
                for inbox in &mut inboxes {
                    inbox.vtime = rounds;
                }
                for sub in submissions.into_iter().flatten() {
                    for mut out in sub {
                        out.msg.at = rounds;
                        if let Some(trace) = trace {
                            trace.record(trace::TraceEvent {
                                round: rounds,
                                from: out.msg.from,
                                to: out.to,
                                tag: out.msg.tag,
                                logical_bits: out.logical_bits,
                                payload_bytes: out.msg.payload.len() as u64,
                                vtime: rounds,
                            });
                        }
                        if active[out.to] {
                            inboxes[out.to].by_sender[out.msg.from].push(out.msg);
                        }
                    }
                }
            }
            // Event-driven: sample a latency per message (senders in
            // id order, send order within a sender, so the jitter
            // stream is a pure function of the send pattern), clamp
            // each directed link to FIFO, apply partitions at
            // dispatch time, then deliver through the event queue in
            // (time, seq) order.
            Some(st) => {
                let mut queue: EventQueue<Outgoing> = EventQueue::new();
                for (from, sub) in submissions.into_iter().enumerate() {
                    let Some(sub) = sub else { continue };
                    let dispatch = st.clocks[from];
                    for out in sub {
                        // Sample before the partition check so the
                        // jitter stream does not depend on the
                        // partition schedule: with and without a
                        // partition, the same seed yields the same
                        // latencies for the surviving messages.
                        let latency = st
                            .model
                            .link
                            .sample(st.model.same_cluster(from, out.to), &mut st.rng);
                        let mut base = dispatch;
                        let mut dropped = false;
                        for (cut, p) in st.model.partitions.iter().enumerate() {
                            if p.cuts(dispatch, from, out.to) {
                                match p.behavior {
                                    PartitionBehavior::Drop => dropped = true,
                                    PartitionBehavior::Delay => base = base.max(p.heal),
                                }
                                if let Some(tel) = telemetry {
                                    tel.record_outage_hit(cut, dropped);
                                }
                                break;
                            }
                        }
                        if dropped {
                            // Lost at the cut: no delivery, no trace
                            // event. The send itself was already
                            // metered — the bits left the sender.
                            continue;
                        }
                        let link_last = &mut st.link_last[from][out.to];
                        let at = (base + latency).max(*link_last);
                        *link_last = at;
                        queue.schedule(at, out);
                    }
                }
                if let Some(tel) = telemetry {
                    tel.record_queue_depth(queue.len() as u64);
                }
                let mut round_end: Vec<VirtualTime> = st.clocks.clone();
                while let Some((at, mut out)) = queue.pop() {
                    out.msg.at = at;
                    if let Some(tel) = telemetry {
                        // Delivery delay: sampled latency plus any
                        // partition hold and FIFO clamping (clocks
                        // still hold this round's dispatch times).
                        tel.record_link(
                            out.msg.from,
                            out.to,
                            out.msg.payload.len() as u64,
                            at - st.clocks[out.msg.from],
                        );
                    }
                    if let Some(trace) = trace {
                        trace.record(trace::TraceEvent {
                            round: rounds,
                            from: out.msg.from,
                            to: out.to,
                            tag: out.msg.tag,
                            logical_bits: out.logical_bits,
                            payload_bytes: out.msg.payload.len() as u64,
                            vtime: at,
                        });
                    }
                    if active[out.to] {
                        round_end[out.to] = round_end[out.to].max(at);
                        inboxes[out.to].by_sender[out.msg.from].push(out.msg);
                    }
                }
                for (id, inbox) in inboxes.iter_mut().enumerate() {
                    inbox.vtime = round_end[id];
                    st.clocks[id] = round_end[id] + st.model.compute_ticks;
                    *vtime_now = (*vtime_now).max(round_end[id]);
                }
            }
        }
        if let Some(limit) = config.max_vtime {
            assert!(
                *vtime_now <= limit,
                "virtual time limit {limit} exceeded (virtual time {vtime_now} at round {rounds})"
            );
        }
        inboxes
    }

    /// A parked node's wait timed out. Declares the run wedged unless
    /// some node arrived since `seen` (then waits on, from the new count).
    fn check_wedge(&self, seen: &mut u64) {
        let state = self.lock();
        if state.error.is_some() {
            // Every handoff is failed: the caller's next take reports it.
            return;
        }
        if state.arrivals != *seen {
            *seen = state.arrivals;
            return;
        }
        let missing: Vec<NodeId> = (0..self.config.n)
            .filter(|&i| state.active[i] && state.submissions[i].is_none())
            .collect();
        let why = format!(
            "simulation wedged in round {}: node(s) {missing:?} never submitted \
             within {:?} under the {} policy at virtual time {} \
             ({} of {} active node(s) outstanding)",
            state.rounds + 1,
            self.config.round_timeout,
            self.config.policy.name(),
            state.vtime_now,
            state.outstanding,
            state.active_count,
        );
        self.fail(state, why);
    }

    /// Records the run's first failure and releases every waiting node
    /// with it.
    fn fail(&self, mut state: MutexGuard<'_, RoundState>, why: String) {
        let why: Arc<str> = why.into();
        state.error = Some(why.clone());
        drop(state);
        for inbox in &self.inboxes {
            inbox.fail(why.clone());
        }
    }
}

/// Result of a completed simulation.
#[derive(Debug)]
pub struct SimResult<O> {
    /// Output of each node's logic, indexed by node id.
    pub outputs: Vec<O>,
    /// Rounds executed.
    pub rounds: u64,
    /// Final virtual time: the latest round-end tick across all nodes
    /// (equals `rounds` under the round-barrier policy).
    pub vtime: VirtualTime,
}

/// Runs `n` node closures to completion under the synchronous round model.
///
/// Each closure runs on its own thread; outputs are collected by node id.
/// Byzantine "crash"/"silence" is modelled by a closure returning early.
///
/// # Panics
///
/// Panics if any node logic panics (the panic is propagated with the node
/// id), if `nodes.len() != config.n`, if `config.max_rounds` or
/// `config.max_vtime` is exceeded, or if the run wedges (see
/// [`SimConfig::round_timeout`]).
pub fn run_simulation<O: Send + 'static>(
    config: SimConfig,
    metrics: MetricsSink,
    nodes: Vec<NodeLogic<O>>,
) -> SimResult<O> {
    run_simulation_traced(config, metrics, None, nodes)
}

/// As [`run_simulation`], additionally recording every delivered message
/// into `trace` (when supplied). Tracing does not change scheduling or
/// results — the simulator is deterministic either way — so a traced run
/// is bit-identical to an untraced one.
///
/// # Panics
///
/// As [`run_simulation`].
pub fn run_simulation_traced<O: Send + 'static>(
    config: SimConfig,
    metrics: MetricsSink,
    trace: Option<trace::TraceSink>,
    nodes: Vec<NodeLogic<O>>,
) -> SimResult<O> {
    let n = config.n;
    assert!(n > 0, "simulation needs at least one node");
    assert_eq!(nodes.len(), n, "one logic closure per node required");

    let event_state = match &config.policy {
        SchedulingPolicy::RoundBarrier => None,
        SchedulingPolicy::EventDriven(model) => {
            model.topology.validate(n);
            assert!(model.compute_ticks >= 1, "compute_ticks must be at least 1");
            for p in &model.partitions {
                assert!(
                    p.start < p.heal,
                    "partition heals at {} before it starts at {}",
                    p.heal,
                    p.start
                );
                for &node in &p.island {
                    assert!(node < n, "partition island node {node} out of range (n = {n})");
                }
            }
            Some(EventState {
                clocks: vec![0; n],
                link_last: vec![vec![0; n]; n],
                rng: StdRng::seed_from_u64(model.seed),
                model: model.clone(),
            })
        }
    };
    // Optional telemetry (attached via `MetricsSink::with_telemetry`):
    // per-link delivery accounting, partition outage windows, and the
    // event-queue high-water mark. Purely observational — it adds no
    // messages and moves no timestamps, so trace digests are
    // unchanged whether or not a recorder is attached.
    let telemetry = metrics.telemetry();
    if let (Some(st), Some(tel)) = (&event_state, &telemetry) {
        for p in &st.model.partitions {
            let behavior = match p.behavior {
                PartitionBehavior::Drop => "drop",
                PartitionBehavior::Delay => "delay",
            };
            tel.register_outage(p.start, p.heal, behavior);
        }
    }
    let exchange = Arc::new(Exchange {
        config,
        metrics: metrics.clone(),
        trace,
        telemetry,
        pool: InboxPool::with_cap(2 * n),
        state: Mutex::new(RoundState {
            submissions: (0..n).map(|_| None).collect(),
            active: vec![true; n],
            active_count: n,
            outstanding: n,
            arrivals: 0,
            rounds: 0,
            vtime_now: 0,
            event_state,
            error: None,
        }),
        inboxes: (0..n).map(|_| Handoff::default()).collect(),
    });

    let results: Vec<std::thread::Result<O>> = std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .into_iter()
            .enumerate()
            .map(|(id, logic)| {
                let exchange = exchange.clone();
                let metrics = metrics.clone();
                scope.spawn(move || {
                    let mut ctx = NodeCtx {
                        id,
                        n,
                        round: 0,
                        vtime: 0,
                        pending: Vec::new(),
                        link: Link::Node(exchange.clone()),
                        metrics,
                    };
                    // Always arrive as finished, even on panic, so a
                    // round never waits on a node that is gone; a panic
                    // fails the run with the node id and its message.
                    let result =
                        std::panic::catch_unwind(AssertUnwindSafe(|| logic(&mut ctx)));
                    exchange.finish(id, result.as_ref().err().map(|p| panic_message(&**p)));
                    result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let state = exchange.lock();
    if let Some(why) = state.error.clone() {
        drop(state);
        panic!("{why}");
    }
    SimResult {
        outputs: results
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect(),
        rounds: state.rounds,
        vtime: state.vtime_now,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Logic<O> = Box<dyn FnOnce(&mut NodeCtx) -> O + Send>;

    fn run<O: Send + 'static>(n: usize, mk: impl Fn(usize) -> Logic<O>) -> (SimResult<O>, MetricsSink) {
        let metrics = MetricsSink::new();
        let logics = (0..n).map(&mk).collect();
        let res = run_simulation(SimConfig::new(n), metrics.clone(), logics);
        (res, metrics)
    }

    #[test]
    fn all_to_all_exchange() {
        let (res, metrics) = run(4, |_| {
            Box::new(|ctx: &mut NodeCtx| {
                for to in 0..ctx.n() {
                    if to != ctx.id() {
                        ctx.send(to, "ping", vec![ctx.id() as u8], 8);
                    }
                }
                let inbox = ctx.end_round();
                let mut got: Vec<usize> = (0..ctx.n())
                    .filter(|&s| !inbox.from_sender(s).is_empty())
                    .collect();
                got.sort_unstable();
                got
            })
        });
        for (id, got) in res.outputs.iter().enumerate() {
            let expect: Vec<usize> = (0..4).filter(|&s| s != id).collect();
            assert_eq!(*got, expect);
        }
        assert_eq!(res.rounds, 1);
        let snap = metrics.snapshot();
        assert_eq!(snap.total_messages(), 12);
        assert_eq!(snap.total_logical_bits(), 96);
        assert_eq!(snap.rounds(), 1);
    }

    #[test]
    fn multi_round_pipeline() {
        // Token passes 0 -> 1 -> 2 -> 0 over three rounds.
        let (res, _) = run(3, |_| {
            Box::new(|ctx: &mut NodeCtx| {
                let mut token: Option<u8> = (ctx.id() == 0).then_some(42);
                for _ in 0..3 {
                    if let Some(t) = token.take() {
                        ctx.send((ctx.id() + 1) % ctx.n(), "tok", vec![t], 8);
                    }
                    let mut inbox = ctx.end_round();
                    let prev = (ctx.id() + ctx.n() - 1) % ctx.n();
                    if let Some(b) = inbox.take(prev, "tok") {
                        token = Some(b[0]);
                    }
                }
                token
            })
        });
        assert_eq!(res.outputs, vec![Some(42), None, None]);
        assert_eq!(res.rounds, 3);
    }

    #[test]
    fn early_finisher_does_not_deadlock() {
        // Node 2 "crashes" immediately; others exchange for 2 rounds.
        let (res, _) = run(3, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id == 2 {
                    return 0usize;
                }
                let mut received = 0usize;
                for _ in 0..2 {
                    for to in 0..ctx.n() {
                        if to != ctx.id() {
                            ctx.send(to, "x", Bytes::new(), 1);
                        }
                    }
                    let inbox = ctx.end_round();
                    received += inbox.len();
                }
                received
            })
        });
        // Each active node hears only from the other active node.
        assert_eq!(res.outputs[0], 2);
        assert_eq!(res.outputs[1], 2);
        assert_eq!(res.outputs[2], 0);
    }

    #[test]
    fn messages_to_finished_nodes_are_dropped() {
        let (res, metrics) = run(2, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id == 1 {
                    return 0usize;
                }
                ctx.send(1, "into-void", vec![1, 2, 3], 24);
                let inbox = ctx.end_round();
                inbox.len()
            })
        });
        assert_eq!(res.outputs[0], 0);
        // The send is still *counted*: the bits were transmitted.
        assert_eq!(metrics.snapshot().total_logical_bits(), 24);
    }

    #[test]
    fn sender_identity_is_authenticated() {
        // Receiver sees the true `from` regardless of payload claims.
        let (res, _) = run(2, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id == 0 {
                    // claims to be node 7 in the payload
                    ctx.send(1, "spoof", vec![7u8], 8);
                    ctx.end_round();
                    None
                } else {
                    let inbox = ctx.end_round();
                    inbox.from_sender(0).first().map(|m| m.from)
                }
            })
        });
        assert_eq!(res.outputs[1], Some(0));
    }

    #[test]
    fn take_consumes_messages_in_order() {
        let (res, _) = run(2, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id == 0 {
                    ctx.send(1, "a", vec![1], 8);
                    ctx.send(1, "b", vec![2], 8);
                    ctx.send(1, "a", vec![3], 8);
                    ctx.end_round();
                    Vec::new()
                } else {
                    let mut inbox = ctx.end_round();
                    let mut got = Vec::new();
                    got.push(inbox.take(0, "a").unwrap()[0]);
                    got.push(inbox.take(0, "a").unwrap()[0]);
                    assert!(inbox.take(0, "a").is_none());
                    got.push(inbox.take(0, "b").unwrap()[0]);
                    got
                }
            })
        });
        assert_eq!(res.outputs[1], vec![1, 3, 2]);
    }

    #[test]
    fn self_send_is_delivered() {
        let (res, _) = run(1, |_| {
            Box::new(|ctx: &mut NodeCtx| {
                ctx.send(0, "self", vec![9], 8);
                let mut inbox = ctx.end_round();
                inbox.take(0, "self").map(|b| b[0])
            })
        });
        assert_eq!(res.outputs[0], Some(9));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_out_of_range_panics() {
        let _ = run(1, |_| {
            Box::new(|ctx: &mut NodeCtx| {
                ctx.send(5, "bad", Bytes::new(), 0);
            })
        });
    }

    #[test]
    #[should_panic(expected = "round limit")]
    fn round_limit_enforced() {
        let metrics = MetricsSink::new();
        let logics: Vec<NodeLogic<()>> = vec![Box::new(|ctx| loop {
            ctx.end_round();
        })];
        let cfg = SimConfig {
            max_rounds: Some(10),
            ..SimConfig::new(1)
        };
        let _ = run_simulation(cfg, metrics, logics);
    }

    #[test]
    #[should_panic(expected = "node 0 panicked")]
    fn node_panic_propagates() {
        let metrics = MetricsSink::new();
        let logics: Vec<NodeLogic<()>> = vec![Box::new(|_| panic!("boom"))];
        let _ = run_simulation(SimConfig::new(1), metrics, logics);
    }

    #[test]
    fn scoped_tags_intern_and_compose() {
        let a = scoped_tag("smr.slot3", "dispersal.symbol");
        let b = scoped_tag(&format!("smr.slot{}", 3), "dispersal.symbol");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "smr.slot3.dispersal.symbol");
        assert_eq!(slot_scope("smr", 7), "smr.slot7");
        assert_ne!(slot_scope("smr", 7), slot_scope("smr", 8));
    }

    #[test]
    fn round_timeout_is_configurable() {
        let cfg = SimConfig::new(2).with_round_timeout(Duration::from_secs(5));
        assert_eq!(cfg.round_timeout, Duration::from_secs(5));
        assert_eq!(SimConfig::new(2).round_timeout, DEFAULT_ROUND_TIMEOUT);
        // A short timeout still completes a healthy run.
        let metrics = MetricsSink::new();
        let logics: Vec<NodeLogic<u64>> = (0..2)
            .map(|_| {
                Box::new(|ctx: &mut NodeCtx| {
                    ctx.end_round();
                    ctx.round()
                }) as NodeLogic<u64>
            })
            .collect();
        let res = run_simulation(cfg, metrics, logics);
        assert_eq!(res.outputs, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "simulation wedged in round 2: node(s) [1] never submitted")]
    // The stall is the point of the test: a real thread must out-sleep
    // the wedge timeout. Exempt from the clippy determinism mirror.
    #[allow(clippy::disallowed_methods)]
    fn wedge_panic_names_missing_nodes_and_round() {
        // Node 1 completes round 1 and then stalls (sleeps past the
        // timeout before finishing); node 0 keeps going. The coordinator
        // must name the stalled node and the wedged round.
        let metrics = MetricsSink::new();
        let logics: Vec<NodeLogic<()>> = (0..2)
            .map(|id| {
                Box::new(move |ctx: &mut NodeCtx| {
                    ctx.end_round();
                    if id == 1 {
                        std::thread::sleep(Duration::from_millis(400));
                    } else {
                        ctx.end_round();
                    }
                }) as NodeLogic<()>
            })
            .collect();
        let cfg = SimConfig::new(2).with_round_timeout(Duration::from_millis(50));
        let _ = run_simulation(cfg, metrics, logics);
    }

    #[test]
    fn inbox_pool_recycles_and_caps() {
        let pool = InboxPool::with_cap(2);
        let shell = pool.take(3);
        assert_eq!(shell.len(), 3);
        // Dropping a pooled inbox returns its (cleared) buffers.
        {
            let mut inbox = Inbox::pooled(3, &pool);
            inbox.by_sender[1].push(Message {
                from: 1,
                tag: "t",
                payload: Bytes::new(),
                at: 0,
            });
        }
        let recycled = pool.take(3);
        assert!(recycled.iter().all(Vec::is_empty), "shells come back drained");
        // The cap bounds retention.
        pool.put(vec![Vec::new(); 3]);
        pool.put(vec![Vec::new(); 3]);
        pool.put(vec![Vec::new(); 3]);
        assert!(
            pool.shells
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len()
                <= 2
        );
        // Shells are resized to the requested width on reuse.
        pool.put(vec![Vec::new(); 7]);
        assert_eq!(pool.take(2).len(), 2);
        // Clones are detached: dropping one never double-returns.
        let inbox = Inbox::pooled(2, &pool);
        let clone = inbox.clone();
        drop(clone);
        drop(inbox);
    }

    #[test]
    fn drain_messages_yields_sender_order_and_empties() {
        let (res, _) = run(3, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id != 2 {
                    ctx.send(2, "m", vec![id as u8], 8);
                    ctx.send(2, "m", vec![id as u8 + 10], 8);
                    ctx.end_round();
                    return Vec::new();
                }
                let mut inbox = ctx.end_round();
                let drained: Vec<(usize, u8)> =
                    inbox.drain_messages().map(|m| (m.from, m.payload[0])).collect();
                assert!(inbox.is_empty());
                drained
            })
        });
        assert_eq!(res.outputs[2], vec![(0, 0), (0, 10), (1, 1), (1, 11)]);
    }

    #[test]
    fn rounds_match_between_result_and_metrics() {
        let (res, metrics) = run(2, |_| {
            Box::new(|ctx: &mut NodeCtx| {
                for _ in 0..5 {
                    ctx.end_round();
                }
            })
        });
        assert_eq!(res.rounds, 5);
        assert_eq!(metrics.snapshot().rounds(), 5);
    }

    // --- the round exchange: arrivals, routing, release ---

    /// The exchange a top-level node's rounds complete at.
    fn exchange(ctx: &NodeCtx) -> Arc<Exchange> {
        match &ctx.link {
            Link::Node(exchange) => exchange.clone(),
            Link::Lane(_) => unreachable!("a top-level node"),
        }
    }

    /// Yields until `ids` are all parked on their inbox handoffs.
    fn wait_parked(exchange: &Exchange, ids: &[NodeId]) {
        while !ids.iter().all(|&id| exchange.inboxes[id].is_parked()) {
            std::thread::yield_now();
        }
    }

    /// The panic message of a failed run.
    fn run_failure<O: Send + 'static>(cfg: SimConfig, logics: Vec<NodeLogic<O>>) -> String {
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_simulation(cfg, MetricsSink::new(), logics)
        }))
        .err()
        .expect("the run fails");
        panic_message(&*err).to_owned()
    }

    #[test]
    fn a_finishing_node_can_complete_and_route_the_round() {
        // Nodes 0 and 1 exchange one message each and park; node 2 waits
        // for both to park and then returns, so its termination is the
        // round's last arrival and routes it.
        let (res, metrics) = run(3, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id == 2 {
                    wait_parked(&exchange(ctx), &[0, 1]);
                    return None;
                }
                ctx.send(1 - id, "x", vec![id as u8], 8);
                let mut inbox = ctx.end_round();
                inbox.take(1 - id, "x").map(|b| b[0])
            })
        });
        assert_eq!(res.outputs, vec![Some(1), Some(0), None]);
        assert_eq!(res.rounds, 1);
        assert_eq!(metrics.snapshot().rounds(), 1);
    }

    #[test]
    fn a_node_panic_releases_parked_peers_with_its_message() {
        // Node 1 panics only once both peers are parked in round 1.
        let logics: Vec<NodeLogic<()>> = (0..3)
            .map(|id| {
                Box::new(move |ctx: &mut NodeCtx| {
                    if id == 1 {
                        wait_parked(&exchange(ctx), &[0, 2]);
                        panic!("boom while peers wait");
                    }
                    loop {
                        ctx.end_round();
                    }
                }) as NodeLogic<()>
            })
            .collect();
        // A generous wedge guard: only the release can end the run fast.
        let cfg = SimConfig::new(3).with_round_timeout(Duration::from_secs(600));
        assert_eq!(run_failure(cfg, logics), "node 1 panicked: boom while peers wait");
    }

    #[test]
    fn a_round_limit_hit_releases_every_parked_node() {
        // Nodes 0 and 1 run until released; node 2 makes the last
        // arrival of round 3 only once both peers are parked there, so
        // the limit fires on node 2's thread with the peers waiting.
        let (released_tx, released_rx) = crossbeam::channel::unbounded::<(NodeId, String)>();
        let logics: Vec<NodeLogic<()>> = (0..3)
            .map(|id| {
                let released_tx = released_tx.clone();
                Box::new(move |ctx: &mut NodeCtx| {
                    if id == 2 {
                        ctx.end_round();
                        ctx.end_round();
                        wait_parked(&exchange(ctx), &[0, 1]);
                        ctx.end_round();
                        unreachable!("round 3 is over the limit");
                    }
                    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
                        ctx.end_round();
                    }));
                    let err = caught.expect_err("released by the failed run");
                    let _ = released_tx.send((id, panic_message(&*err).to_owned()));
                    std::panic::resume_unwind(err);
                }) as NodeLogic<()>
            })
            .collect();
        drop(released_tx);
        let cfg = SimConfig {
            max_rounds: Some(2),
            ..SimConfig::new(3).with_round_timeout(Duration::from_secs(600))
        };
        assert_eq!(run_failure(cfg, logics), "round limit 2 exceeded");
        let mut released: Vec<(NodeId, String)> = released_rx.try_iter().collect();
        released.sort();
        assert_eq!(
            released,
            vec![
                (0, "round limit 2 exceeded".to_owned()),
                (1, "round limit 2 exceeded".to_owned())
            ]
        );
    }

    // --- event-driven scheduling ---

    fn run_with<O: Send + 'static>(
        cfg: SimConfig,
        mk: impl Fn(usize) -> Logic<O>,
    ) -> SimResult<O> {
        let logics = (0..cfg.n).map(&mk).collect();
        run_simulation(cfg, MetricsSink::new(), logics)
    }

    /// Both nodes ping each other every round for `rounds` rounds.
    fn ping_pong(rounds: usize) -> impl Fn(usize) -> Logic<Vec<VirtualTime>> {
        move |_| {
            Box::new(move |ctx: &mut NodeCtx| {
                let mut ends = Vec::new();
                for _ in 0..rounds {
                    ctx.send(1 - ctx.id(), "ping", vec![1u8], 8);
                    let inbox = ctx.end_round();
                    assert_eq!(inbox.vtime(), ctx.vtime());
                    ends.push(ctx.vtime());
                }
                ends
            })
        }
    }

    #[test]
    fn round_barrier_vtime_is_the_round_counter() {
        let res = run_with(SimConfig::new(2), ping_pong(3));
        assert_eq!(res.rounds, 3);
        assert_eq!(res.vtime, 3, "round-barrier virtual time == rounds");
        assert_eq!(res.outputs[0], vec![1, 2, 3]);
    }

    #[test]
    fn fixed_latency_advances_the_virtual_clock() {
        let model = NetModel::new(LinkModel::Fixed(50), Topology::Clique).with_compute_ticks(10);
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let res = run_with(cfg, ping_pong(3));
        // Round k ends at arrival of the peer's ping: dispatch + 50,
        // with dispatch advancing by (50 + 10) per round.
        assert_eq!(res.outputs[0], vec![50, 110, 170]);
        assert_eq!(res.outputs[1], vec![50, 110, 170]);
        assert_eq!(res.rounds, 3);
        assert_eq!(res.vtime, 170);
    }

    #[test]
    fn jitter_respects_bounds_and_link_fifo() {
        let model = NetModel::new(
            LinkModel::UniformJitter { base: 100, jitter: 40 },
            Topology::Clique,
        )
        .with_seed(42);
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let res = run_with(
            cfg,
            |_| {
                Box::new(|ctx: &mut NodeCtx| {
                    // Two same-round messages on one link must not reorder.
                    ctx.send(1 - ctx.id(), "a", vec![1u8], 8);
                    ctx.send(1 - ctx.id(), "b", vec![2u8], 8);
                    let inbox = ctx.end_round();
                    let msgs = inbox.from_sender(1 - ctx.id());
                    assert_eq!(msgs.len(), 2);
                    assert_eq!(msgs[0].tag, "a", "link FIFO preserves send order");
                    assert!(msgs[0].at <= msgs[1].at);
                    for m in msgs {
                        assert!((100..=140).contains(&m.at), "jitter bounds: {}", m.at);
                    }
                    ctx.vtime()
                }) as Logic<VirtualTime>
            },
        );
        assert!((100..=140).contains(&res.vtime));
    }

    #[test]
    fn wan_links_are_slower_across_clusters() {
        let model = NetModel::new(
            LinkModel::Wan { intra: 10, inter: 1000, jitter: 0 },
            Topology::Clusters(vec![2, 2]),
        );
        let cfg = SimConfig::new(4).with_policy(SchedulingPolicy::EventDriven(model));
        let res = run_with(
            cfg,
            |_| {
                Box::new(|ctx: &mut NodeCtx| {
                    for to in 0..ctx.n() {
                        if to != ctx.id() {
                            ctx.send(to, "m", vec![1u8], 8);
                        }
                    }
                    let inbox = ctx.end_round();
                    let same = if ctx.id() < 2 { 1 - ctx.id() } else { 5 - ctx.id() };
                    let far = (ctx.id() + 2) % 4;
                    (inbox.from_sender(same)[0].at, inbox.from_sender(far)[0].at)
                }) as Logic<(VirtualTime, VirtualTime)>
            },
        );
        for &(near, far) in &res.outputs {
            assert_eq!(near, 10);
            assert_eq!(far, 1000);
        }
        assert_eq!(res.vtime, 1000, "the round waits for the WAN stragglers");
    }

    #[test]
    fn partition_drop_loses_crossings_and_delay_defers_them() {
        let topo = Topology::Clusters(vec![1, 1]);
        for (behavior, expect_lost) in
            [(PartitionBehavior::Drop, true), (PartitionBehavior::Delay, false)]
        {
            let model = NetModel::new(LinkModel::Fixed(10), topo.clone())
                .with_partition(Partition {
                    start: 0,
                    heal: 500,
                    island: vec![1],
                    behavior,
                });
            let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
            let res = run_with(
                cfg,
                |_| {
                    Box::new(|ctx: &mut NodeCtx| {
                        ctx.send(1 - ctx.id(), "x", vec![1u8], 8);
                        let inbox = ctx.end_round();
                        inbox.from_sender(1 - ctx.id()).first().map(|m| m.at)
                    }) as Logic<Option<VirtualTime>>
                },
            );
            if expect_lost {
                assert_eq!(res.outputs, vec![None, None], "drop partitions lose crossings");
            } else {
                // Delayed crossings arrive at heal + latency; the round
                // stretches past the heal instead of losing the message.
                assert_eq!(res.outputs, vec![Some(510), Some(510)]);
                assert_eq!(res.vtime, 510);
            }
        }
    }

    #[test]
    fn healed_partition_restores_normal_latency() {
        // Round-1 dispatches (t = 0) cross the active cut and are
        // delayed to heal + latency; once healed, later rounds flow at
        // plain link latency again.
        let model = NetModel::new(LinkModel::Fixed(10), Topology::Clusters(vec![1, 1]))
            .with_partition(Partition {
                start: 0,
                heal: 100,
                island: vec![0],
                behavior: PartitionBehavior::Delay,
            });
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let res = run_with(cfg, ping_pong(2));
        // Round 1 ends at 110 for both; round-2 dispatch at 111 is past
        // the heal, so round 2 ends at 121.
        assert_eq!(res.outputs[0], vec![110, 121]);
        assert_eq!(res.outputs[1], vec![110, 121]);
    }

    #[test]
    fn event_driven_runs_are_deterministic() {
        let mk = || {
            let model = NetModel::new(
                LinkModel::Wan { intra: 50, inter: 2000, jitter: 300 },
                Topology::Clusters(vec![2, 1]),
            )
            .with_seed(7);
            SimConfig::new(3).with_policy(SchedulingPolicy::EventDriven(model))
        };
        let run_once = || {
            run_with(mk(), |_| {
                Box::new(|ctx: &mut NodeCtx| {
                    let mut arrivals = Vec::new();
                    for _ in 0..4 {
                        for to in 0..ctx.n() {
                            ctx.send(to, "m", vec![ctx.id() as u8], 8);
                        }
                        let mut inbox = ctx.end_round();
                        arrivals.extend(inbox.drain_messages().map(|m| (m.from, m.at)));
                    }
                    arrivals
                }) as Logic<Vec<(usize, VirtualTime)>>
            })
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a.outputs, b.outputs, "same seed, same delivery schedule");
        assert_eq!(a.vtime, b.vtime);
    }

    fn run_with_sink<O: Send + 'static>(
        cfg: SimConfig,
        metrics: MetricsSink,
        mk: impl Fn(usize) -> Logic<O>,
    ) -> SimResult<O> {
        let logics = (0..cfg.n).map(&mk).collect();
        run_simulation(cfg, metrics, logics)
    }

    #[test]
    fn telemetry_records_links_and_queue_depth() {
        let model = NetModel::new(LinkModel::Fixed(50), Topology::Clique);
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let metrics = MetricsSink::with_telemetry();
        let _ = run_with_sink(cfg, metrics.clone(), ping_pong(3));
        let snap = metrics.telemetry().unwrap().snapshot();
        // Each direction carried one 1-byte ping per round at 50 ticks.
        for key in [(0usize, 1usize), (1, 0)] {
            let link = snap.links[&key];
            assert_eq!(link.messages, 3, "link {key:?}");
            assert_eq!(link.payload_bytes, 3);
            assert_eq!(link.total_delay, 150);
            assert!((link.mean_delay() - 50.0).abs() < 1e-9);
        }
        // Two in-flight deliveries per round.
        assert_eq!(snap.queue_high_water, 2);
        assert!(snap.outages.is_empty());
    }

    #[test]
    fn telemetry_counts_partition_outage_traffic() {
        for (behavior, name) in
            [(PartitionBehavior::Drop, "drop"), (PartitionBehavior::Delay, "delay")]
        {
            let model = NetModel::new(LinkModel::Fixed(10), Topology::Clusters(vec![1, 1]))
                .with_partition(Partition {
                    start: 0,
                    heal: 500,
                    island: vec![1],
                    behavior,
                });
            let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
            let metrics = MetricsSink::with_telemetry();
            let _ = run_with_sink(cfg, metrics.clone(), |_| {
                Box::new(|ctx: &mut NodeCtx| {
                    ctx.send(1 - ctx.id(), "x", vec![1u8], 8);
                    let _ = ctx.end_round();
                }) as Logic<()>
            });
            let snap = metrics.telemetry().unwrap().snapshot();
            assert_eq!(snap.outages.len(), 1);
            let o = &snap.outages[0];
            assert_eq!((o.start, o.heal, o.behavior.as_str()), (0, 500, name));
            // Both crossings of the round hit the cut.
            if o.behavior == "drop" {
                assert_eq!((o.dropped, o.delayed), (2, 0));
                assert!(snap.links.is_empty(), "dropped crossings never deliver");
            } else {
                assert_eq!((o.dropped, o.delayed), (0, 2));
                // Held until the heal: delay = heal + latency - dispatch.
                assert_eq!(snap.links[&(0, 1)].total_delay, 510);
            }
        }
    }

    #[test]
    fn plain_sink_records_no_telemetry_under_event_driven() {
        let model = NetModel::new(LinkModel::Fixed(50), Topology::Clique);
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let metrics = MetricsSink::new();
        let res = run_with_sink(cfg, metrics.clone(), ping_pong(2));
        assert_eq!(res.rounds, 2);
        assert!(res.vtime >= 100, "two 50-tick rounds ran");
        assert!(metrics.telemetry().is_none());
    }

    #[test]
    #[should_panic(expected = "virtual time limit 100 exceeded")]
    fn max_vtime_is_enforced() {
        let model = NetModel::new(LinkModel::Fixed(60), Topology::Clique);
        let cfg = SimConfig::new(2)
            .with_policy(SchedulingPolicy::EventDriven(model))
            .with_max_vtime(100);
        let _ = run_with(cfg, ping_pong(5));
    }

    #[test]
    #[should_panic(expected = "cluster sizes")]
    fn event_driven_validates_topology_against_n() {
        let model = NetModel::new(LinkModel::Fixed(1), Topology::Clusters(vec![2, 2]));
        let cfg = SimConfig::new(3).with_policy(SchedulingPolicy::EventDriven(model));
        let _ = run_with(cfg, |_| Box::new(|_ctx: &mut NodeCtx| ()) as Logic<()>);
    }
}
