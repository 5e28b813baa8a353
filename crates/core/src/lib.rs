#![warn(missing_docs)]
//! Wukong+S: a distributed stateful stream querying engine over
//! fast-evolving linked data (SOSP 2017).
//!
//! This crate assembles the substrates into the paper's integrated,
//! store-centric design (§3, Fig. 5):
//!
//! - a [`cluster::Cluster`] of persistent-store shards connected by a
//!   simulated RDMA fabric, plus per-`(node, stream)` transient rings and
//!   stream-index replicas;
//! - the full stream pipeline (Adaptor → Dispatcher → Injector →
//!   Coordinator) driven by [`engine::WukongS::ingest`];
//! - a continuous engine with data-driven triggering and an in-place /
//!   fork-join execution choice per query (§5, "Leveraging RDMA");
//! - a one-shot engine reading consistent snapshots via bounded snapshot
//!   scalarization (§4.3);
//! - checkpoint/recovery with at-least-once continuous-query semantics
//!   (§5, fault tolerance).
//!
//! # Quick start
//!
//! ```
//! use wukong_core::{EngineConfig, WukongS};
//! use wukong_rdf::ntriples;
//! use wukong_stream::StreamSchema;
//! use wukong_rdf::StreamId;
//!
//! let engine = WukongS::new(EngineConfig::single_node());
//! // Load stored data.
//! let triples = ntriples::parse_document(
//!     engine.strings(),
//!     "Logan fo Erik\nErik fo Logan\n",
//! )
//! .unwrap();
//! engine.load_base(triples);
//! // Register a stream and a continuous query over it.
//! let sid = engine.register_stream(StreamSchema::timeless(StreamId(0), "Tweet_Stream", 100));
//! let q = engine
//!     .register_continuous(
//!         "REGISTER QUERY qc SELECT ?X ?Z \
//!          FROM Tweet_Stream [RANGE 1s STEP 100ms] \
//!          WHERE { GRAPH Tweet_Stream { ?X po ?Z } . ?X fo Erik }",
//!     )
//!     .unwrap();
//! // Stream a tuple and pump the pipeline.
//! let t = ntriples::parse_tuple(engine.strings(), "Logan po T-15 20", 1).unwrap();
//! engine.ingest(sid, t.triple, t.timestamp);
//! engine.advance_time(100);
//! let firings = engine.fire_ready();
//! assert_eq!(firings.len(), 1);
//! assert_eq!(firings[0].query, q);
//! assert_eq!(firings[0].results.rows.len(), 1);
//! ```

pub mod access;
pub mod checkpoint;
pub mod client;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod forkjoin;
pub mod metrics;
pub mod recovery;
pub mod scrub;

pub use client::{Client, Prepared, ProxyPool, Submitted};
pub use cluster::ClusterHandle;
pub use config::{EngineConfig, ExecMode, OverloadPolicy};
pub use engine::{ContinuousId, DeploymentStats, Firing, OverloadState, RecoveryReport, WukongS};
pub use metrics::LatencyRecorder;
pub use recovery::RecoveryManager;
pub use scrub::ScrubViolation;
