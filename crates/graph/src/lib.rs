//! # dctopo-graph
//!
//! Capacitated multigraph substrate for the `dctopo` workspace.
//!
//! This crate provides the graph data structure and the graph algorithms
//! that every other subsystem builds on:
//!
//! * [`Graph`] — an undirected capacitated multigraph with a directed *arc*
//!   view (each undirected edge contributes two arcs of equal capacity, one
//!   per direction), which is the representation the max-concurrent-flow
//!   solver consumes.
//! * a compact CSR arc view ([`csr::CsrNet`]) with reusable Dijkstra
//!   scratch buffers ([`csr::DijkstraWorkspace`]) — the zero-allocation
//!   representation every flow-solver backend consumes.
//! * shortest paths: unweighted BFS, weighted Dijkstra over arbitrary
//!   per-arc lengths ([`paths`]), Yen's k-shortest simple paths and ECMP
//!   shortest-path enumeration ([`kshortest`]).
//! * average shortest path length (ASPL) and diameter ([`paths::PathStats`]).
//! * connectivity queries ([`components`]).
//! * degree-preserving double-edge swaps ([`swaps`]), the repair move used
//!   by the Jellyfish-style random regular graph construction.
//! * spectral diagnostics ([`spectral`]): second adjacency eigenvalue and
//!   sampled edge expansion, verifying the expander properties the
//!   paper's §6.2 analysis assumes.
//!
//! Nodes are dense indices `0..n` (`NodeId = usize`). Node *roles* (switch
//! vs. server, large vs. small switch) are deliberately not stored here;
//! they belong to `dctopo-topology`, which layers meaning on top of the
//! bare graph.

#![warn(missing_docs)]

pub mod components;
pub mod csr;
pub mod error;
pub mod graph;
pub mod io;
pub mod kshortest;
pub mod msbfs;
pub mod paths;
pub mod spectral;
pub mod swaps;

pub use csr::{CsrNet, DijkstraWorkspace};
pub use error::GraphError;
pub use graph::{ArcId, EdgeId, Graph, NodeId};
pub use msbfs::{ms_bfs, ms_bfs_csr, MsBfsWorkspace};
pub use paths::{BfsWorkspace, PathStats};
