//! Core identifiers and the interconnect graph.
//!
//! The topology is a set of cores connected by *directed* links: every
//! physical (undirected) wire between two cores is represented as two
//! directed links so that the network model can account for contention in
//! each direction independently (paper §VII: "we do model contention on
//! individual links").

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

    /// Append a link of this latency and bandwidth; returns its id.
    fn push(&mut self, latency: VDuration, bandwidth: u32) -> LinkId {
        let id = LinkId(self.class.len() as u32);
        let class = self.intern(latency, bandwidth);
        self.class.push(class);
        id
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

    /// Give link `id` a new latency and bandwidth, re-interning its class.
    /// The class it leaves stays in the table with one link fewer, and
    /// still counts against [`MAX_LINK_CLASSES`].
    fn set(&mut self, id: LinkId, latency: VDuration, bandwidth: u32) {
        self.classes[self.class[id.index()] as usize].links -= 1;
        self.class[id.index()] = self.intern(latency, bandwidth);
    }

    /// The classes some link uses, in first-seen order.
    fn classes(&self) -> impl Iterator<Item = LinkClass> + '_ {
        self.classes.iter().copied().filter(|c| c.links > 0)
    }

    /// Index of the `(latency, bandwidth)` class, counting one more link in
    /// it; 0 once the table overflowed.
    fn intern(&mut self, latency: VDuration, bandwidth: u32) -> u16 {
        let key = (latency, bandwidth);
        let hit = match self.classes.get(self.last as usize) {
            Some(c) if (c.latency, c.bandwidth) == key => Some(self.last),
            _ => self.index.get(&key).copied(),
        };
        let i = match hit {
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

/// Directed links in id order (`LinkId(i)` is the `i`-th push): per link
/// its ends (8 B) and the index of its `(latency, bandwidth)` class (2 B).
/// For a caller that must revise links after pushing them, as the config
/// parser's `link` overrides do: [`Topology::from_links`] keeps the
/// classes and drops the ends once the adjacency rows hold them. A
/// builder that knows its links up front emits them through
/// [`Topology::generate`] instead, and holds no list.
#[derive(Clone, Debug, Default)]
pub struct LinkList {
    ends: Vec<(CoreId, CoreId)>,
    classes: LinkClasses,
}

impl LinkList {
    /// Append a directed link; returns its id. A pair beyond
    /// [`MAX_LINK_CLASSES`] marks the list as overflowed instead of
    /// panicking, so a parser can report it.
    pub fn push(&mut self, l: LinkProps) -> LinkId {
        self.ends.push((l.src, l.dst));
        self.classes.push(l.latency, l.bandwidth_bytes_per_cycle)
    }

    /// Give link `id` a new latency and bandwidth, re-interning its class.
    pub(crate) fn set(&mut self, id: LinkId, latency: VDuration, bandwidth: u32) {
        self.classes.set(id, latency, bandwidth);
    }

    /// True iff some pair found the class table full.
    pub(crate) fn overflowed(&self) -> bool {
        self.classes.overflowed
    }
}

impl FromIterator<LinkProps> for LinkList {
    fn from_iter<I: IntoIterator<Item = LinkProps>>(iter: I) -> Self {
        let mut list = LinkList::default();
        for l in iter {
            list.push(l);
        }
        list
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
    /// pass: `cursor[c + 1]` is core `c`'s fill cursor into `adj`.
    cursor: &'a mut [u32],
    /// `(neighbor, link)` words of every row; `None` on the counting pass.
    adj: Option<&'a mut [[u32; 2]]>,
    /// Where the filling pass interns classes; `None` when they are known
    /// already ([`Topology::from_links`]) and on the counting pass.
    classes: Option<&'a mut LinkClasses>,
}

impl LinkSink<'_> {
    /// Hand over the next directed link.
    #[inline]
    pub fn link(&mut self, l: LinkProps) {
        if let Some(classes) = self.classes.as_deref_mut() {
            classes.push(l.latency, l.bandwidth_bytes_per_cycle);
        }
        self.ends(l.src, l.dst);
    }

    /// Hand over both directed links of a connection between `a` and `b`,
    /// in [`Topology::add_link`] order: `a -> b`, then `b -> a`.
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

    /// Count the link `src -> dst`, or write it at its row's cursor.
    /// Panics on a self-loop or an out-of-range core.
    #[inline]
    fn ends(&mut self, src: CoreId, dst: CoreId) {
        let row = src.index() + 1;
        match self.adj.as_deref_mut() {
            None => {
                assert!(src != dst, "self-loop link {src}");
                assert!(
                    src.0 < self.n_cores && dst.0 < self.n_cores,
                    "core out of range"
                );
            }
            Some(adj) => adj[self.cursor[row] as usize] = [dst.0, self.next],
        }
        self.cursor[row] += 1;
        self.next += 1;
    }
}

/// The interconnect graph: cores plus directed links with per-link latency
/// and bandwidth.
///
/// Every shape in [`crate::builders`] is a link generator run by
/// [`Topology::generate`], which writes each link straight into its
/// adjacency row; the config parser, which revises links as it reads, fills
/// a [`LinkList`] for [`Topology::from_links`], which runs the same
/// construction over it. Small hand-built graphs can use builder-style
/// `add_*` calls. Afterwards the topology is immutable and shared by the
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
    /// or more than [`MAX_LINK_CLASSES`] link classes, as
    /// [`Topology::add_directed_link`] does.
    pub fn generate(n_cores: u32, links: impl Fn(&mut LinkSink)) -> Self {
        Self::build(n_cores, None, links)
    }

    /// Build a topology from a list of its directed links: the list's
    /// `i`-th link becomes `LinkId(i)`, with the class the list holds for
    /// it. Checks and cost as for [`Topology::generate`]; the list's ends
    /// are dropped once the rows hold them.
    pub fn from_links(n_cores: u32, links: LinkList) -> Self {
        let LinkList { ends, classes } = links;
        Self::build(n_cores, Some(classes), |sink| {
            for &(src, dst) in &ends {
                sink.ends(src, dst);
            }
        })
    }

    /// The one construction: count, fill, check, sort. `classes` holds the
    /// links' classes when they are known already; otherwise the filling
    /// pass interns them.
    fn build(n_cores: u32, classes: Option<LinkClasses>, links: impl Fn(&mut LinkSink)) -> Self {
        assert!(n_cores > 0, "a topology needs at least one core");
        let mut offsets = vec![0u32; n_cores as usize + 1];
        let mut count = LinkSink {
            n_cores,
            next: 0,
            cursor: &mut offsets,
            adj: None,
            classes: None,
        };
        links(&mut count);
        let m = count.next;
        // `offsets[c + 1]` becomes core `c`'s fill cursor; filling advances
        // each cursor to its row's end, which is the next row's start.
        shift_counts(&mut offsets);
        // Words of `u32`s, so the rows start as one zeroed allocation that
        // the filling pass is the first to touch.
        let mut words = vec![[0u32; 2]; m as usize];
        let intern = classes.is_none();
        let mut classes = classes.unwrap_or_else(|| LinkClasses::with_capacity(m as usize));
        let mut fill = LinkSink {
            n_cores,
            next: 0,
            cursor: &mut offsets,
            adj: Some(&mut words),
            classes: intern.then_some(&mut classes),
        };
        links(&mut fill);
        assert!(
            fill.next == m,
            "a link generator handed over other links on its second run"
        );
        assert_classes_fit(&classes);
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

    /// The `(latency, bandwidth)` classes some link uses, in first-seen
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

    /// Add a single directed link; returns its id. Panics on self-loops,
    /// out-of-range cores or duplicate links.
    ///
    /// Each call costs O(cores + links), since it shifts the flat
    /// adjacency: fine for hand-built graphs, while machines of any size
    /// should come from [`Topology::from_links`].
    pub fn add_directed_link(
        &mut self,
        src: CoreId,
        dst: CoreId,
        latency: VDuration,
        bandwidth: u32,
    ) -> LinkId {
        assert!(src != dst, "self-loop link {src}");
        assert!(
            src.0 < self.n_cores && dst.0 < self.n_cores,
            "core out of range"
        );
        assert!(bandwidth > 0, "link bandwidth must be non-zero");
        assert!(
            !self.are_neighbors(src, dst),
            "duplicate link {src} -> {dst}"
        );
        let id = self.links.push(latency, bandwidth);
        assert_classes_fit(&self.links);
        let pos = self.offsets[src.index()] as usize
            + self.neighbors(src).partition_point(|&(n, _)| n < dst);
        self.adj.insert(pos, (dst, id));
        for o in &mut self.offsets[src.index() + 1..] {
            *o += 1;
        }
        id
    }

    /// Add a bidirectional connection (two directed links with identical
    /// properties); returns both ids. O(cores + links), like
    /// [`Topology::add_directed_link`].
    pub fn add_link(
        &mut self,
        a: CoreId,
        b: CoreId,
        latency: VDuration,
        bandwidth: u32,
    ) -> (LinkId, LinkId) {
        let ab = self.add_directed_link(a, b, latency, bandwidth);
        let ba = self.add_directed_link(b, a, latency, bandwidth);
        (ab, ba)
    }

    /// Add a bidirectional connection with the paper's default latency
    /// (1 cycle) and bandwidth (128 B/cy). O(cores + links), like
    /// [`Topology::add_directed_link`].
    pub fn add_default_link(&mut self, a: CoreId, b: CoreId) -> (LinkId, LinkId) {
        self.add_link(a, b, DEFAULT_LINK_LATENCY, DEFAULT_LINK_BANDWIDTH)
    }

    /// Override the latency/bandwidth of the directed link `a -> b` (and its
    /// reverse when `both_directions`).
    pub fn set_link_props(
        &mut self,
        a: CoreId,
        b: CoreId,
        latency: VDuration,
        bandwidth: u32,
        both_directions: bool,
    ) {
        assert!(bandwidth > 0, "link bandwidth must be non-zero");
        let ab = self
            .link_between(a, b)
            .unwrap_or_else(|| panic!("no link {a} -> {b}"));
        self.links.set(ab, latency, bandwidth);
        if both_directions {
            let ba = self
                .link_between(b, a)
                .unwrap_or_else(|| panic!("no link {b} -> {a}"));
            self.links.set(ba, latency, bandwidth);
        }
        assert_classes_fit(&self.links);
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

/// Panics when `links` needed more than [`MAX_LINK_CLASSES`] classes.
fn assert_classes_fit(links: &LinkClasses) {
    assert!(
        !links.overflowed,
        "more than {MAX_LINK_CLASSES} link classes"
    );
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

    fn triangle() -> Topology {
        let mut t = Topology::new(3);
        t.add_default_link(CoreId(0), CoreId(1));
        t.add_default_link(CoreId(1), CoreId(2));
        t.add_default_link(CoreId(2), CoreId(0));
        t
    }

    fn link(src: u32, dst: u32, bandwidth: u32) -> LinkProps {
        LinkProps {
            src: CoreId(src),
            dst: CoreId(dst),
            latency: DEFAULT_LINK_LATENCY,
            bandwidth_bytes_per_cycle: bandwidth,
        }
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
        let mut t = Topology::new(4);
        t.add_default_link(CoreId(0), CoreId(3));
        t.add_default_link(CoreId(0), CoreId(1));
        t.add_default_link(CoreId(0), CoreId(2));
        let ns: Vec<u32> = t.neighbors(CoreId(0)).iter().map(|&(n, _)| n.0).collect();
        assert_eq!(ns, vec![1, 2, 3]);
    }

    /// One pass over a link list and one `add_directed_link` per link give
    /// the same ids and the same sorted rows.
    #[test]
    fn from_links_matches_incremental_construction() {
        let links = vec![link(0, 3, 8), link(3, 0, 8), link(0, 1, 8), link(2, 0, 16)];
        let flat = Topology::from_links(4, links.iter().copied().collect());
        let mut inc = Topology::new(4);
        for l in &links {
            inc.add_directed_link(l.src, l.dst, l.latency, l.bandwidth_bytes_per_cycle);
        }
        assert!(flat.links().eq(inc.links()));
        assert_eq!(flat.links().len(), 4);
        for c in flat.cores() {
            assert_eq!(flat.neighbors(c), inc.neighbors(c), "{c}");
        }
        assert_eq!(
            flat.neighbors(CoreId(0)),
            &[(CoreId(1), LinkId(2)), (CoreId(3), LinkId(0))]
        );
        assert_eq!(flat.degree(CoreId(1)), 0);
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

    /// A list handed to `from_links` and a generator handing the same
    /// links to `generate` each panic with the message of the check it
    /// breaks.
    #[test]
    fn from_links_rejects_what_add_directed_link_rejects() {
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
            let list = links.clone();
            let msg = panic_message(|| Topology::from_links(3, list.into_iter().collect()));
            assert_eq!(msg, expect, "from_links");
            let msg = panic_message(|| {
                Topology::generate(3, |sink| {
                    for &l in &links {
                        sink.link(l);
                    }
                })
            });
            assert_eq!(msg, expect, "generate");
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

    /// A class index is a `u16`: the list marks the pair that finds the
    /// table full, and `from_links` refuses the list.
    #[test]
    fn link_classes_are_capped() {
        let distinct = |n: u32| (1..=n).map(|bw| link(0, 1, bw));
        let full: LinkList = distinct(MAX_LINK_CLASSES as u32).collect();
        assert!(!full.overflowed());
        let mut over = full.clone();
        over.push(link(1, 0, u32::MAX));
        assert!(over.overflowed());
        let err = std::panic::catch_unwind(|| Topology::from_links(2, over)).unwrap_err();
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("more than 65536 link classes")
        );
    }

    /// Reachability is directed and from core 0: a core that only reaches
    /// core 0 does not make the graph connected.
    #[test]
    fn connectivity_needs_a_path_from_core_zero() {
        let mut t = Topology::new(2);
        t.add_directed_link(CoreId(1), CoreId(0), DEFAULT_LINK_LATENCY, 8);
        assert!(!t.is_connected());
        t.add_directed_link(CoreId(0), CoreId(1), DEFAULT_LINK_LATENCY, 8);
        assert!(t.is_connected());
    }

    /// Core 3 is reached only through core 1, which core 0 reaches only
    /// through the id-decreasing link 2 -> 1: the index-order sweep
    /// passes core 1 before marking it, so the depth-first search decides.
    #[test]
    fn connectivity_through_id_decreasing_links() {
        let mut t = Topology::new(4);
        for (a, b) in [(0, 2), (2, 1), (1, 3)] {
            t.add_directed_link(CoreId(a), CoreId(b), DEFAULT_LINK_LATENCY, 8);
        }
        assert!(t.is_connected());
        // Without the last hop, core 3 is out of reach either way.
        let mut cut = Topology::new(4);
        for (a, b) in [(0, 2), (2, 1), (3, 1)] {
            cut.add_directed_link(CoreId(a), CoreId(b), DEFAULT_LINK_LATENCY, 8);
        }
        assert!(!cut.is_connected());
    }

    #[test]
    fn connectivity_and_bfs() {
        let t = triangle();
        assert!(t.is_connected());
        assert_eq!(t.hop_distances(CoreId(0)), vec![0, 1, 1]);
        assert_eq!(t.diameter_hops(), 1);

        let mut line = Topology::new(3);
        line.add_default_link(CoreId(0), CoreId(1));
        assert!(!line.is_connected());
        let d = line.hop_distances(CoreId(0));
        assert_eq!(d[2], u32::MAX);
    }

    /// Reaching every core from core 0 is not every pair reaching each
    /// other: a one-way link passes the first check and fails the second.
    #[test]
    fn strong_connectivity_sweeps_both_ways() {
        let mut t = Topology::new(2);
        let ab = t.add_directed_link(CoreId(0), CoreId(1), DEFAULT_LINK_LATENCY, 8);
        assert!(t.is_connected());
        assert!(!t.is_strongly_connected(|_| false));
        let ba = t.add_directed_link(CoreId(1), CoreId(0), DEFAULT_LINK_LATENCY, 8);
        assert!(t.is_strongly_connected(|_| false));
        assert!(!t.is_strongly_connected(|l| l == ab));
        assert!(!t.is_strongly_connected(|l| l == ba));
        assert!(Topology::new(1).is_strongly_connected(|_| true));
    }

    #[test]
    fn set_link_props_overrides() {
        let mut t = triangle();
        t.set_link_props(CoreId(0), CoreId(1), VDuration::from_cycles(9), 64, true);
        let ab = t.link_between(CoreId(0), CoreId(1)).unwrap();
        let ba = t.link_between(CoreId(1), CoreId(0)).unwrap();
        assert_eq!(t.link(ab).latency, VDuration::from_cycles(9));
        assert_eq!(t.link(ba).bandwidth_bytes_per_cycle, 64);
        // Other links untouched.
        let bc = t.link_between(CoreId(1), CoreId(2)).unwrap();
        assert_eq!(t.link(bc).latency, DEFAULT_LINK_LATENCY);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_link_rejected() {
        let mut t = triangle();
        t.add_default_link(CoreId(0), CoreId(1));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut t = Topology::new(2);
        t.add_default_link(CoreId(0), CoreId(0));
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
