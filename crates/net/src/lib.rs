#![warn(missing_docs)]

//! # simany-net — the interconnect model
//!
//! SiMany times every inter-core message itself: "each memory access or
//! remote request is initially stamped with the initiator core's virtual
//! time and is increased by a specific delay as it traverses the
//! architecture's communication components" (paper §II.A). This crate
//! implements that accounting:
//!
//! * [`Envelope`] — a message in flight: source, destination, virtual send
//!   and arrival times, payload and sequence number.
//! * [`LinkTraffic`] — per-directed-link occupancy, giving **contention on
//!   individual links** (paper §VII contrasts this with BigSim's
//!   contention-free model): a link serializes messages, so a message may
//!   have to wait for the link to free up before transmission.
//! * [`NetworkModel`] — routes a message hop by hop over the minimal-latency
//!   route, charging per-link latency, serialization (size/bandwidth),
//!   per-hop routing penalty and per-chunk processing (all tunable,
//!   paper §III "the size of message chunks, the time needed to process
//!   them or the routing penalty").
//!
//! Delivered envelopes wait in their destination core's receive queue,
//! which the engine (`simany-core`) owns.

pub mod link;
pub mod message;

pub use link::{LinkTraffic, NetStats};
pub use message::{Envelope, Payload};

use std::sync::Arc;

use simany_fault::FaultPlan;
use simany_time::prng::Xoshiro256StarStar;
use simany_time::{Digest, VDuration, VirtualTime};
use simany_topology::{CoreId, LinkId, LinkProps, Routes, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tunable network cost parameters (paper §III, Architecture Variability).
#[derive(Clone, Copy, Debug)]
pub struct NetworkParams {
    /// Messages are cut into chunks of this many bytes; each chunk pays the
    /// per-chunk processing time at every hop.
    pub chunk_bytes: u32,
    /// Processing time per chunk per hop.
    pub per_chunk_time: VDuration,
    /// Fixed routing decision penalty per hop.
    pub routing_penalty: VDuration,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            chunk_bytes: 64,
            per_chunk_time: VDuration::ZERO,
            routing_penalty: VDuration::ZERO,
        }
    }
}

impl NetworkParams {
    /// Number of chunks a message of `size` bytes occupies (at least one,
    /// even for empty control payloads).
    pub fn chunks(&self, size: u32) -> u32 {
        size.div_ceil(self.chunk_bytes).max(1)
    }
}

/// Why a [`NetworkModel::try_send`] refused to deliver a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The fault plan dropped the message in flight: nothing was charged.
    Faulty,
    /// The message arrived corrupted: the full route was charged, but the
    /// destination discards the bits.
    Corrupted,
    /// No surviving route reaches the destination in the current epoch
    /// (the machine is partitioned).
    Unreachable,
}

/// A dead-link-set change observed by [`NetworkModel::observe_epochs`].
#[derive(Clone, Debug)]
pub struct EpochTransition {
    /// Virtual time of the epoch boundary.
    pub at: VirtualTime,
    /// Links that failed at this boundary.
    pub went_down: Vec<LinkId>,
    /// Links that recovered at this boundary.
    pub came_up: Vec<LinkId>,
    /// True when the new epoch leaves the machine partitioned.
    pub partitioned: bool,
}

/// Fault-injection state: the shared plan plus this model's private PRNG
/// stream for per-message fate draws.
#[derive(Debug)]
struct FaultState {
    plan: Arc<FaultPlan>,
    rng: Xoshiro256StarStar,
    /// Highest epoch index already reported via `observe_epochs`.
    announced_epoch: usize,
    /// Per `(src, dst)` pair: the highest `sent` stamp seen and the arrival
    /// assigned to it. Extra fault delays and epoch route changes can give
    /// a later message a shorter path than its predecessor; this floor
    /// clamps such arrivals so per-sender FIFO delivery (the inbox
    /// contract) survives faults. Only maintained when the plan can
    /// actually reorder (`has_message_faults` or multiple epochs) — on an
    /// empty plan the map is never touched, keeping the bit-identical-to-
    /// no-plan guarantee. Back-stamped replies (`sent` below the floor) do
    /// not participate: per-pair virtual FIFO is defined on send stamps.
    fifo_floor: std::collections::HashMap<(u32, u32), (VirtualTime, VirtualTime)>,
}

/// The complete network model: topology + routing + per-link traffic +
/// parameters. Owned by the simulator engine; every message send flows
/// through [`NetworkModel::try_send`]. The topology is shared, not copied: the
/// engine holds the same allocation.
#[derive(Debug)]
pub struct NetworkModel {
    topo: Arc<Topology>,
    routes: Routes,
    traffic: LinkTraffic,
    params: NetworkParams,
    next_seq: u64,
    stats: NetStats,
    fault: Option<FaultState>,
}

impl NetworkModel {
    /// Build the model. `topo` is a `Topology` or an `Arc` of one to
    /// share; routes are computed as messages need them.
    pub fn new(topo: impl Into<Arc<Topology>>, params: NetworkParams) -> Self {
        Self::with_faults(topo, params, None, 0)
    }

    /// Build the model with an optional fault plan. `seed` feeds the
    /// model's private per-message fate stream; with `plan == None` (or an
    /// empty plan) behavior is bit-identical to [`NetworkModel::new`] —
    /// the stream is never drawn from.
    pub fn with_faults(
        topo: impl Into<Arc<Topology>>,
        params: NetworkParams,
        plan: Option<Arc<FaultPlan>>,
        seed: u64,
    ) -> Self {
        let topo = topo.into();
        if let Some(p) = &plan {
            assert_eq!(
                p.n_links(),
                topo.n_links(),
                "fault plan compiled against a different topology (links)"
            );
            assert_eq!(
                p.n_cores(),
                topo.n_cores(),
                "fault plan compiled against a different topology (cores)"
            );
        }
        let routes = Routes::for_topology(&topo);
        let traffic = LinkTraffic::new(topo.n_links());
        NetworkModel {
            topo,
            routes,
            traffic,
            params,
            next_seq: 0,
            stats: NetStats::default(),
            fault: plan.map(|plan| FaultState {
                plan,
                rng: Xoshiro256StarStar::stream(seed, simany_fault::NET_STREAM),
                announced_epoch: 0,
                fifo_floor: std::collections::HashMap::new(),
            }),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Sum of the link latencies on the fault-free route from `src` to
    /// `dst`: a lower bound on any arrival, contention and faults aside.
    pub fn path_latency(&mut self, src: CoreId, dst: CoreId) -> VDuration {
        let row = self.routes.row(&self.topo, dst);
        Routes::path(&self.topo, row, src)
            .map(|(_, l)| l.latency)
            .sum()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Pure latency of the route from `src` to `dst` for a message of
    /// `size` bytes, ignoring current contention. Useful for models that
    /// need an estimate (e.g. coherence timing).
    pub fn uncontended_latency(&mut self, src: CoreId, dst: CoreId, size: u32) -> VDuration {
        if src == dst {
            return VDuration::ZERO;
        }
        let row = self.routes.row(&self.topo, dst);
        let mut hops = 0;
        let mut base = VDuration::ZERO;
        let mut ser = VDuration::ZERO;
        let mut hop_ser = SerDelay::new(size);
        for (_, props) in Routes::path(&self.topo, row, src) {
            hops += 1;
            base += props.latency;
            ser += hop_ser.at(props.bandwidth_bytes_per_cycle);
        }
        let chunks = self.params.chunks(size) as u64;
        let mut extra = self.params.routing_penalty.scaled(hops);
        extra += self.params.per_chunk_time.scaled(hops * chunks);
        base + extra + ser
    }

    /// Walk the route from `src` to `dst` with a transfer of `size_bytes`
    /// departing at `depart`: charges every traversed link (latency,
    /// serialization, per-hop costs) and updates per-link contention state.
    /// Returns the arrival time at `dst`. This is the timing core of
    /// [`NetworkModel::try_send`], also used directly for traffic that carries
    /// no payload envelope (e.g. coherence protocol legs simulated by the
    /// cycle-level reference).
    pub fn transit(
        &mut self,
        src: CoreId,
        dst: CoreId,
        size_bytes: u32,
        depart: VirtualTime,
    ) -> VirtualTime {
        if src == dst {
            return depart;
        }
        let NetworkModel {
            topo,
            routes,
            traffic,
            params,
            stats,
            fault,
            ..
        } = self;
        let chunks = params.chunks(size_bytes) as u64;
        let per_hop = params.routing_penalty + params.per_chunk_time.scaled(chunks);
        let mut charge = |row: &[u32]| {
            let mut t = depart;
            let mut hop_ser = SerDelay::new(size_bytes);
            for (link, props) in Routes::path(topo, row, src) {
                let ser = hop_ser.at(props.bandwidth_bytes_per_cycle);
                t = traffic.traverse(link, t, ser, props.latency + per_hop, stats);
                stats.total_hops += 1;
            }
            t
        };
        // When the current fault epoch has dead links, walk the epoch's
        // row; fall back to the base row when even that cannot reach
        // (partition) so engine-internal traffic (e.g. coherence legs) is
        // still charged rather than panicking — payload sends gate on
        // reachability in `try_send`.
        if let Some(plan) = fault.as_ref().map(|f| &*f.plan) {
            let e = plan.epoch_at(depart);
            if !plan.epoch_dead_links(e).is_empty() {
                let row = routes.row_avoiding(topo, e, |l| plan.link_dead(e, l), dst);
                if row[src.index()] != Routes::NO_LINK {
                    let t = charge(row);
                    // Count a reroute only when the base route actually
                    // crosses a dead link (the epoch's rows agree with the
                    // base rows everywhere else).
                    let base = routes.row(topo, dst);
                    if Routes::path(topo, base, src).any(|(l, _)| plan.link_dead(e, l)) {
                        stats.rerouted += 1;
                    }
                    return t;
                }
            }
        }
        charge(routes.row(topo, dst))
    }

    /// Send a message: walks the route, charges every traversed component,
    /// updates link contention state, and returns the stamped envelope whose
    /// `arrival` is the virtual time at which `dst` can observe it. A
    /// message to self costs nothing and arrives immediately (local
    /// operations are not network interactions).
    ///
    /// The fault plan, if any, is consulted first. On failure the payload
    /// is handed back (task bodies are not clonable, so the caller needs it
    /// to retry) together with the [`DropReason`]:
    ///
    /// * `Unreachable` — the current epoch leaves no route; nothing is
    ///   charged.
    /// * `Faulty` — dropped in flight; nothing is charged (the sender only
    ///   learns via timeout, modeled by the runtime's retry policy).
    /// * `Corrupted` — the message traverses the full route (charging
    ///   links exactly like a delivery) but arrives as garbage.
    ///
    /// Determinism contract: when the plan has any message faults, every
    /// non-local attempt consumes exactly three PRNG draws regardless of
    /// outcome; when the plan is empty or absent, zero draws.
    pub fn try_send(
        &mut self,
        src: CoreId,
        dst: CoreId,
        size_bytes: u32,
        sent: VirtualTime,
        payload: Payload,
    ) -> Result<Envelope, (DropReason, Payload)> {
        let mut extra_delay = VDuration::ZERO;
        if src != dst {
            if let Some(fault) = self.fault.as_mut() {
                let plan = &*fault.plan;
                let e = plan.epoch_at(sent);
                let epoch_row = if plan.epoch_dead_links(e).is_empty() {
                    None
                } else {
                    let row =
                        self.routes
                            .row_avoiding(&self.topo, e, |l| plan.link_dead(e, l), dst);
                    if row[src.index()] == Routes::NO_LINK {
                        self.stats.unreachable += 1;
                        return Err((DropReason::Unreachable, payload));
                    }
                    Some(row)
                };
                if plan.has_message_faults() {
                    // Combine per-link fault probabilities over the route
                    // this message will take.
                    let row = match epoch_row {
                        Some(row) => row,
                        None => self.routes.row(&self.topo, dst),
                    };
                    let mut keep_drop = 1.0f64;
                    let mut keep_corrupt = 1.0f64;
                    let mut keep_delay = 1.0f64;
                    for (link, _) in Routes::path(&self.topo, row, src) {
                        keep_drop *= 1.0 - plan.drop_prob(link);
                        keep_corrupt *= 1.0 - plan.corrupt_prob(link);
                        if plan.delay_prob(link) > 0.0 {
                            keep_delay *= 1.0 - plan.delay_prob(link);
                            extra_delay += plan.delay_of(link);
                        }
                    }
                    // Fixed draw count per attempt (determinism contract).
                    let dropped = fault.rng.chance(1.0 - keep_drop);
                    let corrupted = fault.rng.chance(1.0 - keep_corrupt);
                    let delayed = fault.rng.chance(1.0 - keep_delay);
                    if dropped {
                        self.stats.dropped += 1;
                        return Err((DropReason::Faulty, payload));
                    }
                    if corrupted {
                        self.transit(src, dst, size_bytes, sent);
                        self.stats.corrupted += 1;
                        return Err((DropReason::Corrupted, payload));
                    }
                    if delayed {
                        self.stats.delayed += 1;
                    } else {
                        extra_delay = VDuration::ZERO;
                    }
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.messages += 1;
        self.stats.bytes += u64::from(size_bytes);
        let mut arrival = self.transit(src, dst, size_bytes, sent) + extra_delay;
        if src != dst {
            if let Some(f) = self.fault.as_mut() {
                if f.plan.has_message_faults() || f.plan.epoch_count() > 1 {
                    // Per-sender FIFO clamp (see `FaultState::fifo_floor`):
                    // a forward-stamped message never arrives before the
                    // previously highest-stamped message on this pair.
                    match f.fifo_floor.entry((src.0, dst.0)) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            let (last_sent, last_arrival) = *e.get();
                            if sent >= last_sent {
                                arrival = arrival.max(last_arrival);
                                e.insert((sent, arrival));
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert((sent, arrival));
                        }
                    }
                }
            }
        }
        Ok(Envelope {
            src,
            dst,
            sent,
            arrival,
            size_bytes,
            seq,
            payload,
        })
    }

    /// True when at least one unannounced epoch boundary lies at or before
    /// `t` (cheap gate for [`NetworkModel::observe_epochs`]).
    pub fn epochs_pending(&self, t: VirtualTime) -> bool {
        match &self.fault {
            Some(f) => {
                let next = f.announced_epoch + 1;
                next < f.plan.epoch_count() && f.plan.boundary(next) <= t
            }
            None => false,
        }
    }

    /// Advance the epoch cursor to virtual time `t`, returning one
    /// [`EpochTransition`] per boundary crossed (in order). Each boundary
    /// is reported exactly once over the life of the model; the engine
    /// turns these into `LinkDown`/`LinkUp` trace events.
    pub fn observe_epochs(&mut self, t: VirtualTime) -> Vec<EpochTransition> {
        let mut out = Vec::new();
        let Some(f) = self.fault.as_mut() else {
            return out;
        };
        while f.announced_epoch + 1 < f.plan.epoch_count()
            && f.plan.boundary(f.announced_epoch + 1) <= t
        {
            let prev = f.announced_epoch;
            let next = prev + 1;
            let mut went_down = Vec::new();
            let mut came_up = Vec::new();
            for i in 0..f.plan.n_links() {
                let l = LinkId(i);
                match (f.plan.link_dead(prev, l), f.plan.link_dead(next, l)) {
                    (false, true) => went_down.push(l),
                    (true, false) => came_up.push(l),
                    _ => {}
                }
            }
            out.push(EpochTransition {
                at: f.plan.boundary(next),
                went_down,
                came_up,
                partitioned: f.plan.epoch_partitioned(next),
            });
            f.announced_epoch = next;
        }
        out
    }

    /// The `k` busiest directed links by accumulated transmission time —
    /// the NoC hotspots of a run (returns fewer when the topology is
    /// smaller or links never carried traffic). Ties go to the lower
    /// `(src, dst)`. One pass over the links keeping `k` of them: O(links ×
    /// log k) time and O(k) memory.
    pub fn busiest_links(&self, k: usize) -> Vec<(LinkProps, VDuration)> {
        // A max-heap of the `k` least keys seen, the key ranking the
        // busiest link first.
        let mut top = BinaryHeap::with_capacity(k + 1);
        for l in (0..self.topo.n_links()).map(LinkId) {
            let busy = self.traffic.busy_time(l);
            if busy.is_zero() {
                continue;
            }
            let props = self.topo.link(l);
            top.push((Reverse(busy), props.src, props.dst, l));
            if top.len() > k {
                top.pop();
            }
        }
        top.into_sorted_vec()
            .into_iter()
            .map(|(Reverse(busy), .., l)| (self.topo.link(l), busy))
            .collect()
    }

    /// Deterministic digest of the model's mutable state (sequence counter,
    /// statistics, per-link busy time, fault cursor), for verification
    /// checkpoints. FNV-1a over little-endian words; the FIFO floor map is
    /// folded order-independently (per-entry hashes summed) because
    /// `HashMap` iteration order is unspecified.
    pub fn state_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.u64(self.next_seq);
        let s = &self.stats;
        for x in [
            s.messages,
            s.bytes,
            s.total_hops,
            s.contention_wait.ticks(),
            s.contended_hops,
            s.dropped,
            s.corrupted,
            s.delayed,
            s.rerouted,
            s.unreachable,
        ] {
            d.u64(x);
        }
        for i in 0..self.topo.n_links() {
            d.u64(self.traffic.busy_time(LinkId(i)).ticks());
        }
        if let Some(f) = &self.fault {
            d.u64(f.announced_epoch as u64);
            d.unordered(&f.fifo_floor, |e, (&(src, dst), &(sent, arrival))| {
                e.u64(u64::from(src))
                    .u64(u64::from(dst))
                    .u64(sent.ticks())
                    .u64(arrival.ticks());
            });
        }
        d.finish()
    }
}

/// Serialization delay of `size` bytes over a link of `bw` bytes/cycle:
/// `ceil(size / bw)` cycles; zero-byte control payloads are free.
#[inline]
pub fn serialization_delay(size: u32, bw: u32) -> VDuration {
    VDuration::from_cycles(u64::from(size.div_ceil(bw)))
}

/// [`serialization_delay`] of one message along its route. Consecutive hops
/// mostly cross links of one bandwidth, so the division is redone only where
/// the bandwidth changes.
struct SerDelay {
    size: u32,
    /// Bandwidth `delay` was computed for; 0 (no link has it) for none.
    bw: u32,
    delay: VDuration,
}

impl SerDelay {
    fn new(size: u32) -> Self {
        SerDelay {
            size,
            bw: 0,
            delay: VDuration::ZERO,
        }
    }

    /// The delay of a hop over a link of bandwidth `bw`.
    #[inline]
    fn at(&mut self, bw: u32) -> VDuration {
        if bw != self.bw {
            self.bw = bw;
            self.delay = serialization_delay(self.size, bw);
        }
        self.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_topology::mesh_2d;

    fn model() -> NetworkModel {
        NetworkModel::new(mesh_2d(16), NetworkParams::default())
    }

    /// A send on a machine that cannot lose it.
    fn send(
        m: &mut NetworkModel,
        src: CoreId,
        dst: CoreId,
        bytes: u32,
        at: VirtualTime,
    ) -> Envelope {
        m.try_send(src, dst, bytes, at, Payload::none()).unwrap()
    }

    #[test]
    fn self_message_is_free() {
        let mut m = model();
        let e = send(
            &mut m,
            CoreId(3),
            CoreId(3),
            64,
            VirtualTime::from_cycles(5),
        );
        assert_eq!(e.arrival, VirtualTime::from_cycles(5));
    }

    #[test]
    fn neighbor_message_pays_latency_and_serialization() {
        let mut m = model();
        // 64 bytes over a 128 B/cy link: ceil = 1 cycle; latency 1 cycle.
        let e = send(&mut m, CoreId(0), CoreId(1), 64, VirtualTime::ZERO);
        assert_eq!(e.arrival, VirtualTime::from_cycles(2));
    }

    #[test]
    fn multi_hop_accumulates() {
        let mut m = model();
        // 4x4 mesh: 0 -> 15 is 6 hops; each hop = 1 latency + 1 serialization.
        let e = send(&mut m, CoreId(0), CoreId(15), 64, VirtualTime::ZERO);
        assert_eq!(e.arrival, VirtualTime::from_cycles(12));
        assert_eq!(m.stats().total_hops, 6);
    }

    #[test]
    fn contention_delays_second_message() {
        let mut m = model();
        let a = send(&mut m, CoreId(0), CoreId(1), 128, VirtualTime::ZERO);
        let b = send(&mut m, CoreId(0), CoreId(1), 128, VirtualTime::ZERO);
        // Both want the same link at t=0; the second waits for the first's
        // serialization slot (1 cycle for 128B at 128B/cy).
        assert_eq!(a.arrival, VirtualTime::from_cycles(2));
        assert_eq!(b.arrival, VirtualTime::from_cycles(3));
        assert!(m.stats().contention_wait > VDuration::ZERO);
    }

    #[test]
    fn per_sender_fifo_holds_on_shared_route() {
        let mut m = model();
        let mut last = VirtualTime::ZERO;
        for i in 0..10 {
            let e = send(
                &mut m,
                CoreId(0),
                CoreId(15),
                32 + i * 16,
                VirtualTime::from_cycles(u64::from(i)),
            );
            assert!(e.arrival >= last, "FIFO violated at message {i}");
            last = e.arrival;
        }
    }

    #[test]
    fn big_messages_serialized_by_bandwidth() {
        let mut m = model();
        // 1280 bytes at 128 B/cy = 10 cycles serialization per hop.
        let e = send(&mut m, CoreId(0), CoreId(1), 1280, VirtualTime::ZERO);
        assert_eq!(e.arrival, VirtualTime::from_cycles(11));
    }

    #[test]
    fn routing_penalty_and_chunk_time_charged_per_hop() {
        let params = NetworkParams {
            chunk_bytes: 64,
            per_chunk_time: VDuration::from_cycles(1),
            routing_penalty: VDuration::from_cycles(2),
        };
        let mut m = NetworkModel::new(mesh_2d(4), params);
        // 128 bytes = 2 chunks. 1 hop: latency 1 + ser 1 + penalty 2 + chunks 2.
        let e = send(&mut m, CoreId(0), CoreId(1), 128, VirtualTime::ZERO);
        assert_eq!(e.arrival, VirtualTime::from_cycles(6));
    }

    #[test]
    fn zero_size_control_message() {
        let mut m = model();
        let e = send(&mut m, CoreId(0), CoreId(1), 0, VirtualTime::ZERO);
        // Still one chunk minimum but zero serialization.
        assert_eq!(e.arrival, VirtualTime::from_cycles(1));
    }

    #[test]
    fn uncontended_latency_matches_fresh_send() {
        let mut m = model();
        let est = m.uncontended_latency(CoreId(0), CoreId(15), 256);
        let e = send(&mut m, CoreId(0), CoreId(15), 256, VirtualTime::ZERO);
        assert_eq!(VirtualTime::ZERO + est, e.arrival);
        assert_eq!(
            m.path_latency(CoreId(0), CoreId(15)),
            VDuration::from_cycles(6)
        );
    }

    #[test]
    fn busiest_links_ranking() {
        let mut m = model();
        // Hammer one link with big messages, lightly touch another path.
        for _ in 0..5 {
            send(&mut m, CoreId(0), CoreId(1), 1280, VirtualTime::ZERO);
        }
        send(&mut m, CoreId(2), CoreId(3), 64, VirtualTime::ZERO);
        let hot = m.busiest_links(3);
        assert!(!hot.is_empty());
        assert_eq!(hot[0].0.src, CoreId(0));
        assert_eq!(hot[0].0.dst, CoreId(1));
        assert_eq!(hot[0].1, VDuration::from_cycles(50));
        // Ranked descending.
        for w in hot.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    /// The bounded top-k gives what sorting every busy link and keeping
    /// the first `k` gives, ties included.
    #[test]
    fn busiest_links_match_a_full_sort() {
        let mut m = NetworkModel::new(mesh_2d(256), NetworkParams::default());
        let mut rng = Xoshiro256StarStar::stream(11, 0);
        for i in 0..400u64 {
            let src = CoreId(rng.next_below(256) as u32);
            let dst = CoreId(rng.next_below(256) as u32);
            let bytes = 64 * (1 + rng.next_below(4) as u32);
            send(&mut m, src, dst, bytes, VirtualTime::from_cycles(i));
        }
        let mut all: Vec<(LinkProps, VDuration)> = m
            .topology()
            .links()
            .enumerate()
            .map(|(i, p)| (p, m.traffic.busy_time(LinkId(i as u32))))
            .filter(|&(_, busy)| !busy.is_zero())
            .collect();
        all.sort_by_key(|&(p, busy)| (Reverse(busy), p.src, p.dst));
        assert!(all.len() > 64, "{} busy links", all.len());
        assert!(
            all.windows(2).any(|w| w[0].1 == w[1].1),
            "the traffic should make ties"
        );
        for k in [0, 1, 8, 64, all.len(), all.len() + 5] {
            let want = &all[..k.min(all.len())];
            assert_eq!(m.busiest_links(k), want, "k = {k}");
        }
    }

    #[test]
    fn seq_numbers_monotonic() {
        let mut m = model();
        let a = send(&mut m, CoreId(0), CoreId(1), 8, VirtualTime::ZERO);
        let b = send(&mut m, CoreId(2), CoreId(3), 8, VirtualTime::ZERO);
        assert!(b.seq > a.seq);
    }

    #[test]
    fn shared_topology_is_not_copied() {
        let topo = Arc::new(mesh_2d(16));
        let net = NetworkModel::new(Arc::clone(&topo), NetworkParams::default());
        assert!(std::ptr::eq(net.topology(), &*topo));
        assert_eq!(Arc::strong_count(&topo), 2);
    }

    use simany_fault::FaultPlanBuilder;
    use simany_topology::LinkId;

    fn both_ways(topo: &Topology, a: u32, b: u32) -> (LinkId, LinkId) {
        (
            topo.link_between(CoreId(a), CoreId(b)).unwrap(),
            topo.link_between(CoreId(b), CoreId(a)).unwrap(),
        )
    }

    #[test]
    fn empty_plan_matches_no_plan_bit_exactly() {
        let topo = mesh_2d(16);
        let plan = Arc::new(simany_fault::FaultPlan::empty(&topo));
        let mut plain = NetworkModel::new(topo.clone(), NetworkParams::default());
        let mut faulty = NetworkModel::with_faults(topo, NetworkParams::default(), Some(plan), 99);
        for i in 0..20u64 {
            let a = send(
                &mut plain,
                CoreId((i % 16) as u32),
                CoreId(((i * 7 + 3) % 16) as u32),
                64 + (i as u32) * 8,
                VirtualTime::from_cycles(i * 3),
            );
            let b = send(
                &mut faulty,
                CoreId((i % 16) as u32),
                CoreId(((i * 7 + 3) % 16) as u32),
                64 + (i as u32) * 8,
                VirtualTime::from_cycles(i * 3),
            );
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.seq, b.seq);
        }
        assert_eq!(plain.stats().messages, faulty.stats().messages);
        assert_eq!(plain.stats().total_hops, faulty.stats().total_hops);
        assert_eq!(faulty.stats().dropped, 0);
        assert_eq!(faulty.stats().rerouted, 0);
    }

    #[test]
    fn dead_link_reroutes_and_counts() {
        let topo = mesh_2d(16);
        let (f, b) = both_ways(&topo, 0, 1);
        let plan = Arc::new(
            FaultPlanBuilder::new()
                .fail_link(f, VirtualTime::ZERO)
                .fail_link(b, VirtualTime::ZERO)
                .build(&topo),
        );
        let mut m = NetworkModel::with_faults(topo, NetworkParams::default(), Some(plan), 1);
        // 0 -> 1 must now detour (3 hops instead of 1).
        let e = m
            .try_send(CoreId(0), CoreId(1), 64, VirtualTime::ZERO, Payload::none())
            .unwrap();
        assert_eq!(m.stats().total_hops, 3);
        assert_eq!(m.stats().rerouted, 1);
        assert_eq!(e.arrival, VirtualTime::from_cycles(6));
        // An unaffected pair is not counted as rerouted.
        m.try_send(
            CoreId(14),
            CoreId(15),
            64,
            VirtualTime::ZERO,
            Payload::none(),
        )
        .unwrap();
        assert_eq!(m.stats().rerouted, 1);
    }

    #[test]
    fn partition_yields_unreachable() {
        let topo = simany_topology::ring(4);
        let (a0, a1) = both_ways(&topo, 0, 1);
        let (b0, b1) = both_ways(&topo, 2, 3);
        let plan = Arc::new(
            FaultPlanBuilder::new()
                .fail_link(a0, VirtualTime::ZERO)
                .fail_link(a1, VirtualTime::ZERO)
                .fail_link(b0, VirtualTime::ZERO)
                .fail_link(b1, VirtualTime::ZERO)
                .build(&topo),
        );
        assert!(plan.epoch_partitioned(0));
        let mut m = NetworkModel::with_faults(topo, NetworkParams::default(), Some(plan), 1);
        let err = m
            .try_send(CoreId(0), CoreId(1), 64, VirtualTime::ZERO, Payload::none())
            .unwrap_err();
        assert_eq!(err.0, DropReason::Unreachable);
        assert_eq!(m.stats().unreachable, 1);
        assert_eq!(m.stats().messages, 0);
        // The surviving half still communicates.
        m.try_send(CoreId(1), CoreId(2), 64, VirtualTime::ZERO, Payload::none())
            .unwrap();
        assert_eq!(m.stats().messages, 1);
    }

    /// A link-fault plan costs memory by what its epochs route, not by
    /// cores²: on a 65,536-core mesh, a dense all-pairs table per dead-link
    /// epoch would need tens of GiB. Core 0 loses its east link, then its
    /// south link too (cut off), then both come back; one corner-to-corner
    /// message per epoch.
    #[test]
    fn link_faults_on_a_65536_core_mesh_route_per_epoch() {
        let topo = mesh_2d(65_536); // 256 x 256
        let (e0, e1) = both_ways(&topo, 0, 1);
        let (s0, s1) = both_ways(&topo, 0, 256);
        let mut b = FaultPlanBuilder::new();
        for l in [e0, e1] {
            b = b.fail_link(l, VirtualTime::from_cycles(100));
        }
        for l in [s0, s1] {
            b = b.fail_link(l, VirtualTime::from_cycles(200));
        }
        for l in [e0, e1, s0, s1] {
            b = b.recover_link(l, VirtualTime::from_cycles(300));
        }
        let plan = Arc::new(b.build(&topo));
        assert_eq!(plan.epoch_count(), 4);
        assert!(!plan.epoch_partitioned(1));
        assert!(plan.epoch_partitioned(2));
        let mut m = NetworkModel::with_faults(topo, NetworkParams::default(), Some(plan), 1);
        let corner = CoreId(65_535);
        let mut hops = Vec::new();
        for at in [0, 150, 250, 350] {
            let before = m.stats().total_hops;
            let sent = m.try_send(
                CoreId(0),
                corner,
                64,
                VirtualTime::from_cycles(at),
                Payload::none(),
            );
            hops.push(sent.map(|_| m.stats().total_hops - before).map_err(|e| e.0));
        }
        let minimal = Ok(2 * 255);
        assert_eq!(
            hops,
            [minimal, minimal, Err(DropReason::Unreachable), minimal]
        );
        assert_eq!(
            m.stats().rerouted,
            1,
            "the base route leaves core 0 eastward"
        );
    }

    #[test]
    fn certain_drop_returns_payload_and_charges_nothing() {
        let topo = mesh_2d(4);
        let link = topo.link_between(CoreId(0), CoreId(1)).unwrap();
        let plan = Arc::new(FaultPlanBuilder::new().drop_prob(link, 1.0).build(&topo));
        let mut m = NetworkModel::with_faults(topo, NetworkParams::default(), Some(plan), 7);
        let err = m
            .try_send(CoreId(0), CoreId(1), 64, VirtualTime::ZERO, Payload::none())
            .unwrap_err();
        assert_eq!(err.0, DropReason::Faulty);
        assert_eq!(m.stats().dropped, 1);
        assert_eq!(m.stats().messages, 0);
        assert_eq!(m.stats().total_hops, 0);
    }

    #[test]
    fn certain_delay_charges_extra() {
        let topo = mesh_2d(4);
        let link = topo.link_between(CoreId(0), CoreId(1)).unwrap();
        let plan = Arc::new(
            FaultPlanBuilder::new()
                .delay(link, 1.0, VDuration::from_cycles(100))
                .build(&topo),
        );
        let mut m = NetworkModel::with_faults(topo, NetworkParams::default(), Some(plan), 7);
        let e = m
            .try_send(CoreId(0), CoreId(1), 64, VirtualTime::ZERO, Payload::none())
            .unwrap();
        assert_eq!(e.arrival, VirtualTime::from_cycles(102));
        assert_eq!(m.stats().delayed, 1);
    }

    #[test]
    fn corruption_charges_route_but_fails() {
        let topo = mesh_2d(4);
        let link = topo.link_between(CoreId(0), CoreId(1)).unwrap();
        let plan = Arc::new(FaultPlanBuilder::new().corrupt_prob(link, 1.0).build(&topo));
        let mut m = NetworkModel::with_faults(topo, NetworkParams::default(), Some(plan), 7);
        let err = m
            .try_send(CoreId(0), CoreId(1), 64, VirtualTime::ZERO, Payload::none())
            .unwrap_err();
        assert_eq!(err.0, DropReason::Corrupted);
        assert_eq!(m.stats().corrupted, 1);
        assert_eq!(m.stats().total_hops, 1, "corrupted traffic still charged");
        assert_eq!(m.stats().messages, 0);
    }

    #[test]
    fn epoch_transitions_observed_once_in_order() {
        let topo = mesh_2d(4);
        let (f, b) = both_ways(&topo, 0, 1);
        let plan = Arc::new(
            FaultPlanBuilder::new()
                .fail_link(f, VirtualTime::from_cycles(100))
                .fail_link(b, VirtualTime::from_cycles(100))
                .recover_link(f, VirtualTime::from_cycles(200))
                .recover_link(b, VirtualTime::from_cycles(200))
                .build(&topo),
        );
        let mut m = NetworkModel::with_faults(topo, NetworkParams::default(), Some(plan), 1);
        assert!(!m.epochs_pending(VirtualTime::from_cycles(99)));
        assert!(m.observe_epochs(VirtualTime::from_cycles(99)).is_empty());
        assert!(m.epochs_pending(VirtualTime::from_cycles(100)));
        let tr = m.observe_epochs(VirtualTime::from_cycles(100));
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].went_down, vec![f, b]);
        assert!(tr[0].came_up.is_empty());
        // Jumping far ahead reports the remaining boundary exactly once.
        let tr = m.observe_epochs(VirtualTime::from_cycles(10_000));
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].came_up, vec![f, b]);
        assert!(m
            .observe_epochs(VirtualTime::from_cycles(20_000))
            .is_empty());
    }
}
