//! Core identifiers and the interconnect graph.
//!
//! The topology is a set of cores connected by *directed* links: every
//! physical (undirected) wire between two cores is represented as two
//! directed links so that the network model can account for contention in
//! each direction independently (paper §VII: "we do model contention on
//! individual links"). Every topology is built by one link generator run
//! through [`Topology::generate`], and its links never change afterwards.

use simany_time::VDuration;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a simulated core. Cores are numbered `0..n_cores`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u32);

impl CoreId {
    /// Index into dense per-core arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a *directed* link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index into dense per-link arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// Properties of one directed link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkProps {
    /// Source core.
    pub src: CoreId,
    /// Destination core.
    pub dst: CoreId,
    /// Base traversal latency of the link.
    pub latency: VDuration,
    /// Bandwidth in bytes per cycle (serialization delay of a message of
    /// `s` bytes is `ceil(s / bandwidth)` cycles).
    pub bandwidth_bytes_per_cycle: u32,
}

impl LinkProps {
    /// The link from `src` to `dst` with the latency and bandwidth of
    /// `timing`.
    #[inline]
    pub fn new(src: CoreId, dst: CoreId, timing: LinkTiming) -> Self {
        LinkProps {
            src,
            dst,
            latency: timing.latency,
            bandwidth_bytes_per_cycle: timing.bandwidth_bytes_per_cycle,
        }
    }
}

/// Latency and bandwidth of one directed link: what [`Topology::link`]
/// reads for a link id in O(1). A link's ends are in the adjacency rows
/// ([`Topology::neighbors`]), or all at once from [`Topology::links`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkTiming {
    /// Base traversal latency of the link.
    pub latency: VDuration,
    /// Bandwidth in bytes per cycle.
    pub bandwidth_bytes_per_cycle: u32,
}

/// Most distinct `(latency, bandwidth)` pairs the links of one topology
/// may use: a link stores the index of its pair as a `u16`.
pub const MAX_LINK_CLASSES: usize = 1 << 16;

/// One `(latency, bandwidth)` pair in a [`LinkClasses`] table, with the
/// number of links that use it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkClass {
    pub(crate) latency: VDuration,
    pub(crate) bandwidth: u32,
    pub(crate) links: u32,
}

/// Links in id order (`LinkId(i)` is the `i`-th push), stored by class:
/// per link the index (2 B) of its `(latency, bandwidth)` pair in a table
/// interned in first-seen order. The few pairs of a real machine (on-die
/// and die-to-die on a chiplet mesh) cost nothing per link.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinkClasses {
    class: Vec<u16>,
    classes: Vec<LinkClass>,
    /// Where each `(latency, bandwidth)` pair sits in `classes`.
    index: HashMap<(VDuration, u32), u16>,
    /// Class of the latest interned pair: consecutive links mostly share
    /// one, so most pushes skip the hash.
    last: u16,
    /// A pair arrived when the table already held [`MAX_LINK_CLASSES`]
    /// classes; construction refuses the links.
    overflowed: bool,
}

impl LinkClasses {
    /// An empty table with room for `links` links.
    fn with_capacity(links: usize) -> Self {
        LinkClasses {
            class: Vec::with_capacity(links),
            ..Default::default()
        }
    }

    /// Append a link of this latency and bandwidth. Consecutive links
    /// mostly share a class, so the latest one is tried before the hash.
    #[inline]
    fn push(&mut self, latency: VDuration, bandwidth: u32) {
        let class = match self.classes.get_mut(self.last as usize) {
            Some(c) if (c.latency, c.bandwidth) == (latency, bandwidth) => {
                c.links += 1;
                self.last
            }
            _ => self.intern(latency, bandwidth),
        };
        self.class.push(class);
    }

    /// Number of links.
    fn len(&self) -> usize {
        self.class.len()
    }

    /// Latency and bandwidth of link `id`.
    #[inline]
    fn timing(&self, id: LinkId) -> LinkTiming {
        let c = self.classes[self.class[id.index()] as usize];
        LinkTiming {
            latency: c.latency,
            bandwidth_bytes_per_cycle: c.bandwidth,
        }
    }

    /// The classes, in first-seen order; each has at least one link.
    fn classes(&self) -> impl Iterator<Item = LinkClass> + '_ {
        self.classes.iter().copied()
    }

    /// Index of the `(latency, bandwidth)` class, counting one more link in
    /// it; 0 once the table overflowed. Kept out of line, so generators'
    /// loops inline only [`LinkClasses::push`]'s check of the latest class.
    #[inline(never)]
    fn intern(&mut self, latency: VDuration, bandwidth: u32) -> u16 {
        let key = (latency, bandwidth);
        let i = match self.index.get(&key).copied() {
            Some(i) => i,
            None if self.classes.len() < MAX_LINK_CLASSES => {
                let i = self.classes.len() as u16;
                self.classes.push(LinkClass {
                    latency,
                    bandwidth,
                    links: 0,
                });
                self.index.insert(key, i);
                i
            }
            None => {
                self.overflowed = true;
                return 0;
            }
        };
        self.classes[i as usize].links += 1;
        self.last = i;
        i
    }
}

/// Receives a link generator's directed links in id order (`LinkId(i)` is
/// the `i`-th link handed over). [`Topology::generate`] runs the generator
/// twice, each time with a sink of its own: the first counts every core's
/// out-degree, the second writes each link into its source's adjacency row
/// and interns its `(latency, bandwidth)` class.
pub struct LinkSink<'a> {
    n_cores: u32,
    /// Links handed over so far on this pass: the id of the next one.
    next: u32,
    /// Counting pass: `cursor[c + 1]` counts core `c`'s links. Filling
    /// pass: `cursor[c + 1]` is core `c`'s fill cursor into the rows.
    cursor: &'a mut [u32],
    /// Filling pass: the `(neighbor, link)` words of every row, and the
    /// table where each link's class is interned. `None` on the counting
    /// pass.
    fill: Option<(&'a mut [[u32; 2]], &'a mut LinkClasses)>,
}

impl LinkSink<'_> {
    /// Hand over the next directed link: count it, or write it at its
    /// row's cursor and intern its class. Panics on a self-loop or an
    /// out-of-range core. Inlined into every generator's loop: a call per
    /// link made a million-core build ~10 % slower.
    #[inline(always)]
    pub fn link(&mut self, l: LinkProps) {
        let row = l.src.index() + 1;
        match &mut self.fill {
            None => {
                assert!(l.src != l.dst, "self-loop link {}", l.src);
                assert!(
                    l.src.0 < self.n_cores && l.dst.0 < self.n_cores,
                    "core out of range"
                );
            }
            Some((adj, classes)) => {
                classes.push(l.latency, l.bandwidth_bytes_per_cycle);
                adj[self.cursor[row] as usize] = [l.dst.0, self.next];
            }
        }
        self.cursor[row] += 1;
        self.next += 1;
    }

    /// Hand over both directed links of a connection between `a` and `b`:
    /// `a -> b`, then `b -> a`.
    #[inline]
    pub fn connect(&mut self, a: CoreId, b: CoreId, latency: VDuration, bandwidth: u32) {
        let ab = LinkProps {
            src: a,
            dst: b,
            latency,
            bandwidth_bytes_per_cycle: bandwidth,
        };
        self.link(ab);
        self.link(LinkProps {
            src: b,
            dst: a,
            ..ab
        });
    }
}

/// The interconnect graph: cores plus directed links with per-link latency
/// and bandwidth.
///
/// Every topology, whether a shape in [`crate::builders`], a parsed
/// configuration or a hand-built test graph, comes from a link generator
/// run by [`Topology::generate`], which writes each link straight into its
/// adjacency row. Afterwards the topology is immutable and shared by the
/// network model, the spatial-synchronization machinery (which needs
/// neighbor sets) and the routes.
///
/// The adjacency is compressed sparse rows: core `c`'s outgoing
/// `(neighbor, link)` pairs are `adj[offsets[c]..offsets[c + 1]]`, so a
/// machine of any size owns a few flat arrays and no heap object per core.
/// A link's ends live only in its adjacency entry (its row is its source),
/// and its latency and bandwidth in a class table (a 2 B index per link):
/// 10 B per directed link.
#[derive(Clone, Debug)]
pub struct Topology {
    n_cores: u32,
    /// Row starts into `adj`: one per core, then the end (`n_cores + 1`).
    offsets: Vec<u32>,
    /// Every core's outgoing `(neighbor, link)` pairs, row after row, each
    /// row sorted by neighbor id for determinism. An index into it is an
    /// *adjacency slot*.
    adj: Vec<(CoreId, LinkId)>,
    links: LinkClasses,
    /// Optional hierarchical region (chiplet / cluster) id per core; empty
    /// when the topology has no region structure. Regions are advisory
    /// metadata for partitioners and reporting — they never affect routing
    /// or timing, so attaching them cannot perturb a simulation.
    regions: Vec<u32>,
    n_regions: u32,
}

/// Default link latency used by builders when none is specified: 1 cycle
/// (paper §V: "the base link traversal latency between two cores is set to
/// 1 cycle").
pub const DEFAULT_LINK_LATENCY: VDuration = VDuration::from_cycles(1);

/// Default link bandwidth used by builders: 128 bytes/cycle (paper §V).
pub const DEFAULT_LINK_BANDWIDTH: u32 = 128;

impl Topology {
    /// Create a topology with `n_cores` cores and no links yet.
    pub fn new(n_cores: u32) -> Self {
        Self::generate(n_cores, |_| {})
    }

    /// Build a topology from a link generator, which hands every directed
    /// link to the [`LinkSink`] it is given: the `i`-th becomes
    /// `LinkId(i)`. The generator runs twice and must hand over the same
    /// links each time; the first run counts each core's links, the second
    /// writes them into their rows, so nothing but the rows and a 2 B class
    /// index per link is ever allocated: O(cores + links). Panics on a
    /// self-loop, an out-of-range core, a zero bandwidth, a duplicate link
    /// or more than [`MAX_LINK_CLASSES`] link classes.
    pub fn generate(n_cores: u32, links: impl Fn(&mut LinkSink)) -> Self {
        assert!(n_cores > 0, "a topology needs at least one core");
        let mut offsets = vec![0u32; n_cores as usize + 1];
        let mut count = LinkSink {
            n_cores,
            next: 0,
            cursor: &mut offsets,
            fill: None,
        };
        links(&mut count);
        let m = count.next;
        // `offsets[c + 1]` becomes core `c`'s fill cursor; filling advances
        // each cursor to its row's end, which is the next row's start.
        shift_counts(&mut offsets);
        // Words of `u32`s, so the rows start as one zeroed allocation that
        // the filling pass is the first to touch.
        let mut words = vec![[0u32; 2]; m as usize];
        let mut classes = LinkClasses::with_capacity(m as usize);
        let mut fill = LinkSink {
            n_cores,
            next: 0,
            cursor: &mut offsets,
            fill: Some((&mut words, &mut classes)),
        };
        links(&mut fill);
        assert!(
            fill.next == m,
            "a link generator handed over other links on its second run"
        );
        assert!(
            !classes.overflowed,
            "more than {MAX_LINK_CLASSES} link classes"
        );
        assert!(
            classes.classes().all(|c| c.bandwidth > 0),
            "link bandwidth must be non-zero"
        );
        // Same size and alignment: the collect reuses the words' buffer.
        let mut adj: Vec<(CoreId, LinkId)> = words
            .into_iter()
            .map(|[dst, link]| (CoreId(dst), LinkId(link)))
            .collect();
        for (c, w) in offsets.windows(2).enumerate() {
            let row = &mut adj[w[0] as usize..w[1] as usize];
            // A row already strictly in order needs neither sort nor check.
            if !row.windows(2).all(|p| p[0].0 < p[1].0) {
                row.sort_unstable_by_key(|&(n, _)| n);
                if let Some(pair) = row.windows(2).find(|p| p[0].0 == p[1].0) {
                    panic!("duplicate link {} -> {}", CoreId(c as u32), pair[0].0);
                }
            }
        }
        Topology {
            n_cores,
            offsets,
            adj,
            links: classes,
            regions: Vec::new(),
            n_regions: 0,
        }
    }

    /// Attach hierarchical region metadata: `regions[i]` is the region
    /// (chiplet, cluster) id of core `i`. Region ids must be dense
    /// (`0..max+1`). Regions are advisory: the BFS partitioner uses them to
    /// keep tiles within region boundaries, nothing else reads them.
    pub fn set_regions(&mut self, regions: Vec<u32>) {
        assert_eq!(
            regions.len(),
            self.n_cores as usize,
            "one region id per core"
        );
        self.n_regions = regions.iter().copied().max().map_or(0, |m| m + 1);
        self.regions = regions;
    }

    /// Number of regions (0 when the topology has no region structure).
    #[inline]
    pub fn n_regions(&self) -> u32 {
        self.n_regions
    }

    /// Region id of `core`, if the topology carries region metadata.
    #[inline]
    pub fn region_of(&self, core: CoreId) -> Option<u32> {
        self.regions.get(core.index()).copied()
    }

    /// Number of cores.
    #[inline]
    pub fn n_cores(&self) -> u32 {
        self.n_cores
    }

    /// Iterate over all core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.n_cores).map(CoreId)
    }

    /// Number of directed links.
    #[inline]
    pub fn n_links(&self) -> u32 {
        self.links.len() as u32
    }

    /// Latency and bandwidth of a directed link, in O(1).
    #[inline]
    pub fn link(&self, id: LinkId) -> LinkTiming {
        self.links.timing(id)
    }

    /// All directed links, in id order. Each call rebuilds the id-ordered
    /// ends from the adjacency rows ([`Topology::link_ends`]): O(links)
    /// time and 8 B per link while the iterator lives.
    pub fn links(&self) -> impl ExactSizeIterator<Item = LinkProps> + '_ {
        self.link_ends()
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst))| LinkProps::new(src, dst, self.link(LinkId(i as u32))))
    }

    /// Every directed link's `(src, dst)`, indexed by link id: one pass
    /// over the adjacency rows per call, O(links).
    pub fn link_ends(&self) -> Vec<(CoreId, CoreId)> {
        let mut ends = vec![(CoreId(0), CoreId(0)); self.adj.len()];
        for src in self.cores() {
            for &(dst, link) in self.neighbors(src) {
                ends[link.index()] = (src, dst);
            }
        }
        ends
    }

    /// The `(neighbor, link)` pair at adjacency slot `slot`: the hop a
    /// route row names.
    #[inline]
    pub(crate) fn hop(&self, slot: u32) -> (CoreId, LinkId) {
        self.adj[slot as usize]
    }

    /// The `(latency, bandwidth)` classes of the links, in first-seen
    /// order: O(classes), however many links share them.
    pub(crate) fn link_classes(&self) -> impl Iterator<Item = LinkClass> + '_ {
        self.links.classes()
    }

    /// Outgoing `(neighbor, link)` pairs of `core`, sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, core: CoreId) -> &[(CoreId, LinkId)] {
        let i = core.index();
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree (number of neighbors) of `core`.
    #[inline]
    pub fn degree(&self, core: CoreId) -> usize {
        self.neighbors(core).len()
    }

    /// True iff `a` and `b` are directly connected.
    pub fn are_neighbors(&self, a: CoreId, b: CoreId) -> bool {
        self.link_between(a, b).is_some()
    }

    /// The directed link from `a` to `b`, if any.
    pub fn link_between(&self, a: CoreId, b: CoreId) -> Option<LinkId> {
        let row = self.neighbors(a);
        row.binary_search_by_key(&b, |&(n, _)| n)
            .ok()
            .map(|i| row[i].1)
    }

    /// True iff every core can be reached from core 0 along directed links.
    /// That means every core reaches every other one only when each link
    /// has its reverse, as in every builder's topology and every parsed
    /// configuration (the parser refuses an asymmetric matrix).
    ///
    /// One sequential sweep first: walk the cores in index order, marking
    /// the neighbors of each core already marked. It reaches every core
    /// that has an id-increasing path from core 0, which in every
    /// builder's machine is every core, and reads the rows front to back.
    /// Only when it misses some core does a depth-first search from core 0
    /// decide.
    pub fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.n_cores as usize];
        seen[0] = true;
        let mut count = 1u32;
        for c in self.cores() {
            if seen[c.index()] {
                for &(n, _) in self.neighbors(c) {
                    count += u32::from(!std::mem::replace(&mut seen[n.index()], true));
                }
            }
        }
        count == self.n_cores || self.reaches_all(|c| self.neighbors(c).iter().copied(), |_| false)
    }

    /// True iff every core reaches every other one over the links `dead`
    /// spares: one sweep from core 0 along the live links and one against
    /// them, O(cores + links). A fault epoch whose dead links make this
    /// false partitions the machine.
    pub fn is_strongly_connected(&self, dead: impl Fn(LinkId) -> bool) -> bool {
        let incoming = Incoming::of(self);
        self.reaches_all(|c| self.neighbors(c).iter().copied(), &dead)
            && self.reaches_all(
                |c| {
                    incoming
                        .to(c)
                        .iter()
                        .map(|&(p, slot)| (p, self.hop(slot).1))
                },
                &dead,
            )
    }

    /// True iff a sweep from core 0 over the `(core, link)` pairs `step`
    /// yields, skipping `dead` links, sees every core.
    fn reaches_all<I: Iterator<Item = (CoreId, LinkId)>>(
        &self,
        step: impl Fn(CoreId) -> I,
        dead: impl Fn(LinkId) -> bool,
    ) -> bool {
        let mut seen = vec![false; self.n_cores as usize];
        let mut stack = vec![CoreId(0)];
        seen[0] = true;
        let mut count = 1u32;
        while let Some(c) = stack.pop() {
            for (n, l) in step(c) {
                if !seen[n.index()] && !dead(l) {
                    seen[n.index()] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.n_cores
    }

    /// Hop distances from `src` to every core (BFS, `u32::MAX` when
    /// unreachable).
    pub fn hop_distances(&self, src: CoreId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n_cores as usize];
        dist[src.index()] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(src);
        while let Some(c) = queue.pop_front() {
            let d = dist[c.index()];
            for &(n, _) in self.neighbors(c) {
                if dist[n.index()] == u32::MAX {
                    dist[n.index()] = d + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// Graph diameter in hops (largest topological distance between two
    /// cores). This bounds the global drift between any two cores at
    /// `diameter × T` under spatial synchronization (paper §II.A). Panics if
    /// the graph is disconnected.
    pub fn diameter_hops(&self) -> u32 {
        let mut max = 0;
        for c in self.cores() {
            let d = self.hop_distances(c);
            for &v in &d {
                assert!(v != u32::MAX, "diameter of a disconnected topology");
                max = max.max(v);
            }
        }
        max
    }
}

/// Turn per-row counts at `offsets[c + 1]` into row starts shifted up by
/// one slot: `offsets[c + 1]` becomes the start of row `c`.
fn shift_counts(offsets: &mut [u32]) {
    let mut start = 0;
    for o in &mut offsets[1..] {
        start += std::mem::replace(o, start);
    }
}

/// The reverse adjacency of a topology, in compressed sparse rows like
/// [`Topology`]'s own: core `c`'s incoming links as `(predecessor, slot)`
/// pairs, where `slot` is the link's adjacency slot in the predecessor's
/// row, each row in link-id order. Routing sweeps walk it from a
/// destination outward.
#[derive(Debug, Default)]
pub(crate) struct Incoming {
    offsets: Vec<u32>,
    pairs: Vec<(CoreId, u32)>,
}

impl Incoming {
    /// The reverse of `topo`'s rows: one counting-sort pass over the
    /// adjacency, then each (short) row sorted by link id.
    pub(crate) fn of(topo: &Topology) -> Self {
        let mut offsets = vec![0u32; topo.n_cores as usize + 1];
        for &(dst, _) in &topo.adj {
            offsets[dst.index() + 1] += 1;
        }
        shift_counts(&mut offsets);
        let mut pairs = vec![(CoreId(0), 0); topo.adj.len()];
        for src in topo.cores() {
            let row = topo.offsets[src.index()]..topo.offsets[src.index() + 1];
            for slot in row {
                let cursor = &mut offsets[topo.adj[slot as usize].0.index() + 1];
                pairs[*cursor as usize] = (src, slot);
                *cursor += 1;
            }
        }
        for w in offsets.windows(2) {
            pairs[w[0] as usize..w[1] as usize].sort_unstable_by_key(|&(_, slot)| topo.hop(slot).1);
        }
        Incoming { offsets, pairs }
    }

    /// Incoming `(predecessor, slot)` pairs of `core`.
    #[inline]
    pub(crate) fn to(&self, core: CoreId) -> &[(CoreId, u32)] {
        let i = core.index();
        &self.pairs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(src: u32, dst: u32, bandwidth: u32) -> LinkProps {
        LinkProps {
            src: CoreId(src),
            dst: CoreId(dst),
            latency: DEFAULT_LINK_LATENCY,
            bandwidth_bytes_per_cycle: bandwidth,
        }
    }

    /// `n` cores and these directed links, in id order.
    fn built(n: u32, links: &[LinkProps]) -> Topology {
        Topology::generate(n, |sink| {
            for &l in links {
                sink.link(l);
            }
        })
    }

    /// `n` cores and a default connection per pair, in order.
    fn connected(n: u32, pairs: &[(u32, u32)]) -> Topology {
        Topology::generate(n, |sink| {
            for &(a, b) in pairs {
                sink.connect(
                    CoreId(a),
                    CoreId(b),
                    DEFAULT_LINK_LATENCY,
                    DEFAULT_LINK_BANDWIDTH,
                );
            }
        })
    }

    fn triangle() -> Topology {
        connected(3, &[(0, 1), (1, 2), (2, 0)])
    }

    /// The adjacency rows `links` describe, written out the plain way: a
    /// `Vec` per core of its `(neighbor, link)` pairs, sorted by neighbor.
    fn reference_rows(n: u32, links: &[LinkProps]) -> Vec<Vec<(CoreId, LinkId)>> {
        let mut rows = vec![Vec::new(); n as usize];
        for (i, l) in links.iter().enumerate() {
            rows[l.src.index()].push((l.dst, LinkId(i as u32)));
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        rows
    }

    #[test]
    fn links_are_directed_pairs() {
        let t = triangle();
        assert_eq!(t.n_links(), 6);
        assert!(t.are_neighbors(CoreId(0), CoreId(1)));
        assert!(t.are_neighbors(CoreId(1), CoreId(0)));
        let ab = t.link_between(CoreId(0), CoreId(1)).unwrap();
        let ba = t.link_between(CoreId(1), CoreId(0)).unwrap();
        assert_ne!(ab, ba);
        assert_eq!(t.link_ends()[ab.index()], (CoreId(0), CoreId(1)));
    }

    #[test]
    fn neighbors_sorted_for_determinism() {
        let t = connected(4, &[(0, 3), (0, 1), (0, 2)]);
        let ns: Vec<u32> = t.neighbors(CoreId(0)).iter().map(|&(n, _)| n.0).collect();
        assert_eq!(ns, vec![1, 2, 3]);
    }

    /// One pass over the generator gives the links back in id order and
    /// the rows a plain per-core list of them would hold.
    #[test]
    fn generate_matches_a_reference_adjacency() {
        let links = vec![link(0, 3, 8), link(3, 0, 8), link(0, 1, 8), link(2, 0, 16)];
        let t = built(4, &links);
        assert_eq!(t.links().collect::<Vec<_>>(), links);
        assert_eq!(t.links().len(), 4);
        let rows = reference_rows(4, &links);
        for c in t.cores() {
            assert_eq!(t.neighbors(c), rows[c.index()], "{c}");
        }
        assert_eq!(
            t.neighbors(CoreId(0)),
            &[(CoreId(1), LinkId(2)), (CoreId(3), LinkId(0))]
        );
        assert_eq!(t.degree(CoreId(1)), 0);
    }

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce() -> Topology) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("construction should panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// A generator handing over a malformed link panics with the message
    /// of the check it breaks.
    #[test]
    fn generate_rejects_malformed_links() {
        let too_many_classes = (1..=MAX_LINK_CLASSES as u32 + 1)
            .map(|bw| link(0, 1, bw))
            .collect();
        let cases = [
            (vec![link(1, 1, 8)], "self-loop link core1"),
            (vec![link(0, 5, 8)], "core out of range"),
            (vec![link(5, 0, 8)], "core out of range"),
            (vec![link(0, 1, 0)], "link bandwidth must be non-zero"),
            (
                vec![link(0, 1, 8), link(1, 0, 8), link(0, 1, 8)],
                "duplicate link core0 -> core1",
            ),
            (too_many_classes, "more than 65536 link classes"),
        ];
        for (links, expect) in cases {
            assert_eq!(panic_message(|| built(3, &links)), expect);
        }
    }

    /// A generator runs once to count and once to fill: one that hands
    /// over fewer links the second time is refused, not half-built.
    #[test]
    fn a_generator_must_repeat_its_links() {
        let runs = std::cell::Cell::new(0);
        let msg = panic_message(|| {
            Topology::generate(3, |sink| {
                runs.set(runs.get() + 1);
                sink.link(link(0, 1, 8));
                if runs.get() == 1 {
                    sink.link(link(1, 0, 8));
                }
            })
        });
        assert_eq!(
            msg,
            "a link generator handed over other links on its second run"
        );
    }

    /// A class index is a `u16`: a star whose spokes each have a class of
    /// their own builds with [`MAX_LINK_CLASSES`] spokes and is refused
    /// with one more.
    #[test]
    fn link_classes_are_capped() {
        let star = |spokes: u32| {
            let links: Vec<LinkProps> = (1..=spokes).map(|bw| link(0, bw, bw)).collect();
            built(MAX_LINK_CLASSES as u32 + 2, &links)
        };
        let full = star(MAX_LINK_CLASSES as u32);
        assert_eq!(full.link_classes().count(), MAX_LINK_CLASSES);
        assert_eq!(
            panic_message(|| star(MAX_LINK_CLASSES as u32 + 1)),
            "more than 65536 link classes"
        );
    }

    /// Reachability is directed and from core 0: a core that only reaches
    /// core 0 does not make the graph connected.
    #[test]
    fn connectivity_needs_a_path_from_core_zero() {
        assert!(!built(2, &[link(1, 0, 8)]).is_connected());
        assert!(built(2, &[link(1, 0, 8), link(0, 1, 8)]).is_connected());
    }

    /// Core 3 is reached only through core 1, which core 0 reaches only
    /// through the id-decreasing link 2 -> 1: the index-order sweep
    /// passes core 1 before marking it, so the depth-first search decides.
    #[test]
    fn connectivity_through_id_decreasing_links() {
        let t = built(4, &[link(0, 2, 8), link(2, 1, 8), link(1, 3, 8)]);
        assert!(t.is_connected());
        // Without the last hop, core 3 is out of reach either way.
        let cut = built(4, &[link(0, 2, 8), link(2, 1, 8), link(3, 1, 8)]);
        assert!(!cut.is_connected());
    }

    #[test]
    fn connectivity_and_bfs() {
        let t = triangle();
        assert!(t.is_connected());
        assert_eq!(t.hop_distances(CoreId(0)), vec![0, 1, 1]);
        assert_eq!(t.diameter_hops(), 1);

        let line = connected(3, &[(0, 1)]);
        assert!(!line.is_connected());
        let d = line.hop_distances(CoreId(0));
        assert_eq!(d[2], u32::MAX);
    }

    /// Reaching every core from core 0 is not every pair reaching each
    /// other: a one-way link passes the first check and fails the second.
    #[test]
    fn strong_connectivity_sweeps_both_ways() {
        let one_way = built(2, &[link(0, 1, 8)]);
        assert!(one_way.is_connected());
        assert!(!one_way.is_strongly_connected(|_| false));
        let t = built(2, &[link(0, 1, 8), link(1, 0, 8)]);
        let (ab, ba) = (LinkId(0), LinkId(1));
        assert!(t.is_strongly_connected(|_| false));
        assert!(!t.is_strongly_connected(|l| l == ab));
        assert!(!t.is_strongly_connected(|l| l == ba));
        assert!(Topology::new(1).is_strongly_connected(|_| true));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_link_rejected() {
        connected(3, &[(0, 1), (1, 2), (2, 0), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        connected(2, &[(0, 0)]);
    }

    #[test]
    fn regions_attach_and_read_back() {
        let mut t = triangle();
        assert_eq!(t.n_regions(), 0);
        assert_eq!(t.region_of(CoreId(0)), None);
        t.set_regions(vec![0, 0, 1]);
        assert_eq!(t.n_regions(), 2);
        assert_eq!(t.region_of(CoreId(1)), Some(0));
        assert_eq!(t.region_of(CoreId(2)), Some(1));
    }

    #[test]
    fn single_core_topology_is_connected() {
        let t = Topology::new(1);
        assert!(t.is_connected());
        assert_eq!(t.diameter_hops(), 0);
        assert_eq!(t.degree(CoreId(0)), 0);
    }
}
