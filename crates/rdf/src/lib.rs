#![warn(missing_docs)]
//! RDF data model for Wukong+S.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace:
//!
//! - [`Vid`] / [`Pid`]: 46-bit vertex identifiers and 17-bit predicate
//!   identifiers, packed together with a direction bit into a [`Key`] exactly
//!   as the paper's base store does (`[vid|eid|d]`, §4.1, Fig. 6).
//! - [`Triple`]: an ID-encoded RDF triple.
//! - [`StreamTuple`]: a timestamped triple flowing on a named stream
//!   (`⟨Logan, po, T-15⟩ 0802` in the paper's Fig. 1).
//! - [`StringServer`]: the string ↔ ID mapping service ("String Server" in
//!   the paper's architecture, Fig. 5).
//! - [`ntriples`]: a small textual triple format used by the workload
//!   generators and examples.

pub mod error;
pub mod id;
pub mod keymap;
pub mod ntriples;
pub mod string_server;
pub mod triple;
pub mod tuple;

pub use error::RdfError;
pub use id::{Dir, Key, Pid, Vid, INDEX_VID, MAX_PID, MAX_VID};
pub use keymap::{KeyHasher, KeyMap, KeySet};
pub use string_server::{NameLens, StringServer};
pub use triple::Triple;
pub use tuple::{StreamId, StreamTuple, Timestamp, TupleKind};
