//! Network models for the event-driven scheduler: per-link latency
//! distributions, topologies, and partitions that form and heal at
//! scheduled virtual times.
//!
//! A [`NetModel`] bundles a [`LinkModel`] (how long a message spends on
//! a link), a [`Topology`] (which links are intra- vs inter-cluster),
//! a partition schedule ([`Partition`]: a set of nodes cut off from the
//! rest between two virtual times), and a seed for the jitter stream.
//! Wrapping one in [`SchedulingPolicy::EventDriven`] switches the
//! simulator from the lockstep round barrier to timed rounds: every
//! node keeps its own virtual clock, messages are delivered by a
//! discrete-event queue at `dispatch + latency`, and a node's round
//! does not end until its last round message has arrived — so the
//! protocol semantics of the synchronous model are preserved while the
//! virtual clock measures what a WAN deployment would actually wait.
//!
//! All latencies are in [`VirtualTime`] ticks (conventionally
//! microseconds). Every sampled latency is at least 1 tick, and links
//! are FIFO: two messages on the same directed link never reorder, even
//! under jitter.

use crate::events::VirtualTime;
use crate::NodeId;

use rand::rngs::StdRng;
use rand::RngExt;

/// Per-link latency distribution, sampled once per message from the
/// model's seeded generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkModel {
    /// Every link takes exactly this many ticks.
    Fixed(VirtualTime),
    /// Uniform jitter around a base: `base + U[0, jitter]` ticks.
    UniformJitter {
        /// Minimum link latency.
        base: VirtualTime,
        /// Maximum extra delay, drawn uniformly per message.
        jitter: VirtualTime,
    },
    /// Cluster-based WAN profile: links inside a [`Topology`] cluster
    /// take `intra + U[0, jitter]`, links between clusters take
    /// `inter + U[0, jitter]`. Under [`Topology::Clique`] every link is
    /// intra-cluster.
    Wan {
        /// Base latency inside a cluster (a LAN/metro hop).
        intra: VirtualTime,
        /// Base latency between clusters (the WAN hop).
        inter: VirtualTime,
        /// Maximum extra delay, drawn uniformly per message.
        jitter: VirtualTime,
    },
}

impl LinkModel {
    /// Samples one message's latency on a link that is (or is not)
    /// inside a single cluster. Always at least 1 tick.
    pub fn sample(&self, same_cluster: bool, rng: &mut StdRng) -> VirtualTime {
        let (base, jitter) = match *self {
            LinkModel::Fixed(t) => (t, 0),
            LinkModel::UniformJitter { base, jitter } => (base, jitter),
            LinkModel::Wan { intra, inter, jitter } => {
                (if same_cluster { intra } else { inter }, jitter)
            }
        };
        let extra = if jitter == 0 { 0 } else { rng.random_range(0..=jitter) };
        base.saturating_add(extra).max(1)
    }
}

/// Who is close to whom: the cluster structure the [`LinkModel`] and
/// [`Partition`]s are defined against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Every pair of nodes is equally close (one big cluster).
    Clique,
    /// Consecutive node-id ranges form clusters: `Clusters(vec![3, 2])`
    /// puts nodes 0-2 in cluster 0 and nodes 3-4 in cluster 1. Sizes
    /// must sum to the simulation's `n` (checked at startup).
    Clusters(Vec<usize>),
}

impl Topology {
    /// The cluster index of `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is beyond the last cluster (the simulator
    /// validates sizes against `n` at startup).
    pub fn cluster_of(&self, node: NodeId) -> usize {
        match self {
            Topology::Clique => 0,
            Topology::Clusters(sizes) => {
                let mut start = 0;
                for (c, &len) in sizes.iter().enumerate() {
                    if node < start + len {
                        return c;
                    }
                    start += len;
                }
                panic!("node {node} is outside the cluster topology {sizes:?}")
            }
        }
    }

    /// The node ids of cluster `c` (empty for out-of-range `c` under
    /// [`Topology::Clique`] except cluster 0, which is everyone — but
    /// clique membership needs `n`, so this is only defined for
    /// [`Topology::Clusters`]).
    ///
    /// # Panics
    ///
    /// Panics on [`Topology::Clique`] (no finite member list without
    /// `n`) or an out-of-range cluster index.
    pub fn cluster_nodes(&self, c: usize) -> Vec<NodeId> {
        match self {
            Topology::Clique => panic!("cluster_nodes needs an explicit cluster topology"),
            Topology::Clusters(sizes) => {
                assert!(c < sizes.len(), "cluster {c} out of range ({} clusters)", sizes.len());
                let start: usize = sizes[..c].iter().sum();
                (start..start + sizes[c]).collect()
            }
        }
    }

    /// Checks the topology covers exactly `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics when cluster sizes do not sum to `n` or a cluster is
    /// empty.
    pub fn validate(&self, n: usize) {
        if let Topology::Clusters(sizes) = self {
            assert!(
                sizes.iter().all(|&s| s > 0),
                "cluster topology {sizes:?} has an empty cluster"
            );
            let total: usize = sizes.iter().sum();
            assert_eq!(total, n, "cluster sizes {sizes:?} sum to {total}, not n = {n}");
        }
    }
}

/// What happens to a message dispatched across an active partition cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionBehavior {
    /// The message is lost (never delivered, never traced; the send is
    /// still metered — the bits left the sender). Losing messages steps
    /// *outside* the error-free synchronous model the protocols above
    /// assume: across a drop cut, fault-free nodes look
    /// Byzantine-silent to each other, and agreement/liveness are no
    /// longer guaranteed. Use [`Delay`](PartitionBehavior::Delay) for a
    /// partition that preserves the model.
    Drop,
    /// The message queues at the cut and crosses when the partition
    /// heals: it is delivered at `heal + latency`. Because a node's
    /// round does not end before its round messages arrive, recipients
    /// stall (in virtual time) until the heal instead of mistaking
    /// partitioned peers for Byzantine-silent ones.
    Delay,
}

/// One scheduled partition: `island` is cut off from the rest of the
/// network for dispatches in `[start, heal)` virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Virtual time at which the partition forms.
    pub start: VirtualTime,
    /// Virtual time at which it heals (exclusive end of the window).
    pub heal: VirtualTime,
    /// The nodes on the cut-off side. Traffic *within* the island and
    /// within the remainder flows normally; only crossings are affected.
    pub island: Vec<NodeId>,
    /// Drop or delay crossings.
    pub behavior: PartitionBehavior,
}

impl Partition {
    /// A partition cutting off the nodes of cluster `c` of `topology`.
    pub fn of_cluster(
        topology: &Topology,
        c: usize,
        start: VirtualTime,
        heal: VirtualTime,
        behavior: PartitionBehavior,
    ) -> Self {
        Partition {
            start,
            heal,
            island: topology.cluster_nodes(c),
            behavior,
        }
    }

    /// An eclipse-style partition: a single `node` is cut off from every
    /// peer for dispatches in `[start, heal)`. With
    /// [`PartitionBehavior::Delay`] this models a suppressed (eclipsed)
    /// replica whose traffic is withheld and released at the heal — the
    /// synchronous model is preserved, so the protocols above stay
    /// correct while the virtual clock pays for the outage.
    pub fn of_node(
        node: NodeId,
        start: VirtualTime,
        heal: VirtualTime,
        behavior: PartitionBehavior,
    ) -> Self {
        Partition { start, heal, island: vec![node], behavior }
    }

    /// True when a message dispatched at `at` from `from` to `to`
    /// crosses this partition's cut while it is active.
    pub fn cuts(&self, at: VirtualTime, from: NodeId, to: NodeId) -> bool {
        at >= self.start
            && at < self.heal
            && (self.island.contains(&from) != self.island.contains(&to))
    }
}

/// The full network model of an event-driven simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetModel {
    /// Per-link latency distribution.
    pub link: LinkModel,
    /// Cluster structure (drives [`LinkModel::Wan`] and
    /// [`Partition::of_cluster`]).
    pub topology: Topology,
    /// Scheduled partitions, applied in order (the first whose window
    /// and cut match a dispatch decides its fate).
    pub partitions: Vec<Partition>,
    /// Seed of the jitter stream (the workspace `rand` shim); two runs
    /// with the same model produce identical delivery schedules.
    pub seed: u64,
    /// Virtual ticks a node spends computing between receiving its
    /// round inbox and dispatching the next round (at least 1, so the
    /// clock advances even on message-free rounds).
    pub compute_ticks: VirtualTime,
}

impl NetModel {
    /// A model with the given link latencies and topology, no
    /// partitions, seed 1, and 1 compute tick per round.
    pub fn new(link: LinkModel, topology: Topology) -> Self {
        NetModel {
            link,
            topology,
            partitions: Vec::new(),
            seed: 1,
            compute_ticks: 1,
        }
    }

    /// Returns the model with a different jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the model with `partition` added to the schedule.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Returns the model with a different per-round compute time.
    pub fn with_compute_ticks(mut self, ticks: VirtualTime) -> Self {
        self.compute_ticks = ticks;
        self
    }

    /// True when `from -> to` is an intra-cluster link.
    pub fn same_cluster(&self, from: NodeId, to: NodeId) -> bool {
        self.topology.cluster_of(from) == self.topology.cluster_of(to)
    }
}

/// How the round exchange schedules rounds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// The classic lockstep barrier: all messages sent in round `r` are
    /// delivered together at the end of round `r`, and the virtual
    /// clock *is* the round counter (round `r`'s deliveries happen at
    /// virtual time `r`). This reproduces the pre-event-driven
    /// simulator exactly — byte-identical traces and digests.
    #[default]
    RoundBarrier,
    /// Timed rounds over a [`NetModel`]: per-node virtual clocks,
    /// per-message link latencies, and a `(time, seq)` event queue
    /// deciding delivery order. Protocol semantics are unchanged (every
    /// round message still reaches its recipient within the recipient's
    /// round); the virtual clock measures real latency shape.
    EventDriven(NetModel),
}

impl SchedulingPolicy {
    /// Short human-readable name, used in wedge reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulingPolicy::RoundBarrier => "round-barrier",
            SchedulingPolicy::EventDriven(_) => "event-driven",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_and_jitter_sampling() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(LinkModel::Fixed(25).sample(true, &mut rng), 25);
        assert_eq!(LinkModel::Fixed(0).sample(false, &mut rng), 1, "latency floor is 1 tick");
        let m = LinkModel::UniformJitter { base: 10, jitter: 5 };
        for _ in 0..200 {
            let l = m.sample(true, &mut rng);
            assert!((10..=15).contains(&l), "jitter out of bounds: {l}");
        }
    }

    #[test]
    fn wan_distinguishes_intra_and_inter() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LinkModel::Wan { intra: 100, inter: 5000, jitter: 0 };
        assert_eq!(m.sample(true, &mut rng), 100);
        assert_eq!(m.sample(false, &mut rng), 5000);
    }

    #[test]
    fn cluster_membership() {
        let t = Topology::Clusters(vec![3, 2, 2]);
        t.validate(7);
        assert_eq!(t.cluster_of(0), 0);
        assert_eq!(t.cluster_of(2), 0);
        assert_eq!(t.cluster_of(3), 1);
        assert_eq!(t.cluster_of(6), 2);
        assert_eq!(t.cluster_nodes(1), vec![3, 4]);
        assert_eq!(Topology::Clique.cluster_of(99), 0);
    }

    #[test]
    #[should_panic(expected = "sum to 5, not n = 6")]
    fn cluster_sizes_must_cover_n() {
        Topology::Clusters(vec![3, 2]).validate(6);
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_clusters_rejected() {
        Topology::Clusters(vec![3, 0, 3]).validate(6);
    }

    #[test]
    fn partition_cut_detection() {
        let topo = Topology::Clusters(vec![2, 2]);
        let p = Partition::of_cluster(&topo, 1, 100, 200, PartitionBehavior::Drop);
        assert_eq!(p.island, vec![2, 3]);
        assert!(p.cuts(100, 0, 2), "crossing during the window is cut");
        assert!(p.cuts(199, 3, 1), "cut works in both directions");
        assert!(!p.cuts(99, 0, 2), "before the window");
        assert!(!p.cuts(200, 0, 2), "heal time is exclusive");
        assert!(!p.cuts(150, 2, 3), "island-internal traffic flows");
        assert!(!p.cuts(150, 0, 1), "mainland-internal traffic flows");
        // Eclipse form: one node cut off in both directions.
        let e = Partition::of_node(2, 10, 20, PartitionBehavior::Delay);
        assert_eq!(e.island, vec![2]);
        assert!(e.cuts(15, 2, 0) && e.cuts(15, 0, 2));
        assert!(!e.cuts(15, 0, 1), "mainland traffic unaffected by an eclipse");
    }

    #[test]
    fn policy_names_and_default() {
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::RoundBarrier);
        assert_eq!(SchedulingPolicy::RoundBarrier.name(), "round-barrier");
        let model = NetModel::new(LinkModel::Fixed(10), Topology::Clique);
        assert_eq!(SchedulingPolicy::EventDriven(model).name(), "event-driven");
    }

    #[test]
    fn model_builders_compose() {
        let topo = Topology::Clusters(vec![2, 2]);
        let m = NetModel::new(LinkModel::Fixed(10), topo.clone())
            .with_seed(9)
            .with_compute_ticks(5)
            .with_partition(Partition::of_cluster(&topo, 0, 10, 20, PartitionBehavior::Delay));
        assert_eq!(m.seed, 9);
        assert_eq!(m.compute_ticks, 5);
        assert_eq!(m.partitions.len(), 1);
        assert!(m.same_cluster(0, 1));
        assert!(!m.same_cluster(1, 2));
    }
}
