#![warn(missing_docs)]

//! # simany-topology — interconnect topologies for SiMany
//!
//! SiMany treats the on-chip network as a first-class, fully configurable
//! object: the topology is "specified in a configuration file as an adjacency
//! matrix", and "the latency and bandwidth of individual links are also
//! independently tunable" (paper §III, *Architecture Variability*). This
//! crate provides:
//!
//! * [`Topology`] — a directed-link graph over cores with per-link latency
//!   and bandwidth ([`graph`]), built by one link generator through
//!   [`Topology::generate`] and never changed afterwards.
//! * Builders for the architectures the paper explores — uniform 2D meshes,
//!   clustered meshes, plus extras (torus, ring, star, hypercube,
//!   fully-connected) ([`builders`]).
//! * Deterministic minimal-latency routes, built one destination at a time
//!   on first use ([`routing`]), and graph metrics such as the diameter,
//!   which bounds the global virtual-time drift (`diameter × T`).
//! * A small text configuration format for adjacency matrices with link
//!   overrides ([`config`]).
//! * A deterministic BFS/strip partitioner splitting the core set into
//!   contiguous tiles ([`partition`]); the engine does not use it.

pub mod builders;
pub mod config;
pub mod graph;
pub mod partition;
pub mod routing;

pub use builders::{
    chiplet_mesh, cluster_of_clusters, cluster_tiles, clustered_mesh, fully_connected, hypercube,
    mesh_2d, mesh_3d, ring, star, torus_2d, ChipletParams, ClusterParams, HierarchyParams,
};
pub use config::{format_topology, parse_topology, ConfigError};
pub use graph::{CoreId, LinkId, LinkProps, LinkSink, LinkTiming, Topology, MAX_LINK_CLASSES};
// `benchmark/src/probes.rs:73` still times `partition_bfs`; ROADMAP's
// parked item "Deleting the names the frozen benchmark uses" deletes that
// probe, and this module with it.
pub use partition::{partition_bfs, Partition};
pub use routing::Routes;
