//! String ↔ ID mapping (the paper's "String Server").
//!
//! To avoid shipping long strings to the servers, every string in data and
//! queries is first converted into a unique ID (§3, Fig. 5; inherited from
//! Wukong). The mapping table is append-only: the paper "simply skips GC
//! for the mapping table, since … some continuous or one-shot queries may
//! access them in the future" (§4.1 footnote 8).
//!
//! Predicates and entities draw from separate ID spaces because the store
//! key packs them with different widths ([`crate::id`]). ID 0 is reserved
//! in both spaces: vertex 0 is the index vertex, predicate 0 is reserved as
//! a catch-all "any" marker used by the query layer.

use crate::error::RdfError;
use crate::id::{Pid, Vid, MAX_PID, MAX_VID};
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::HashMap;

#[derive(Default)]
struct Space {
    forward: HashMap<String, u64>,
    reverse: Vec<String>,
}

impl Space {
    fn intern(&mut self, s: &str, max: u64) -> Result<u64, RdfError> {
        if let Some(&id) = self.forward.get(s) {
            return Ok(id);
        }
        // IDs start at 1; slot 0 is reserved.
        let id = self.reverse.len() as u64 + 1;
        if id > max {
            return Err(RdfError::VidOverflow(id));
        }
        self.forward.insert(s.to_owned(), id);
        self.reverse.push(s.to_owned());
        Ok(id)
    }

    fn lookup(&self, s: &str) -> Option<u64> {
        self.forward.get(s).copied()
    }

    fn resolve(&self, id: u64) -> Option<&str> {
        if id == 0 {
            return None;
        }
        self.reverse.get(id as usize - 1).map(String::as_str)
    }
}

/// Thread-safe, append-only string ↔ ID mapping for entities and predicates.
///
/// # Examples
///
/// ```
/// use wukong_rdf::StringServer;
///
/// let ss = StringServer::new();
/// let logan = ss.intern_entity("Logan").unwrap();
/// assert_eq!(ss.intern_entity("Logan").unwrap(), logan); // idempotent
/// assert_eq!(ss.entity_name(logan).unwrap(), "Logan");
/// ```
pub struct StringServer {
    entities: RwLock<Space>,
    predicates: RwLock<Space>,
}

/// Both ID spaces held under their read locks: resolves name *lengths*
/// for a whole batch of IDs with two lock acquisitions and no allocation
/// (see [`StringServer::name_lens`]).
pub struct NameLens<'a> {
    entities: RwLockReadGuard<'a, Space>,
    predicates: RwLockReadGuard<'a, Space>,
}

impl NameLens<'_> {
    /// Byte length of an entity's string, `None` for an unknown ID.
    pub fn entity(&self, vid: Vid) -> Option<usize> {
        self.entities.resolve(vid.0).map(str::len)
    }

    /// Byte length of a predicate's string, `None` for an unknown ID.
    pub fn predicate(&self, pid: Pid) -> Option<usize> {
        self.predicates.resolve(pid.0).map(str::len)
    }
}

impl Default for StringServer {
    fn default() -> Self {
        Self::new()
    }
}

impl StringServer {
    /// Creates an empty string server.
    pub fn new() -> Self {
        StringServer {
            entities: RwLock::new(Space::default()),
            predicates: RwLock::new(Space::default()),
        }
    }

    /// Interns an entity string, returning its (possibly pre-existing) ID.
    pub fn intern_entity(&self, s: &str) -> Result<Vid, RdfError> {
        // Fast path: read lock only.
        if let Some(id) = self.entities.read().lookup(s) {
            return Ok(Vid(id));
        }
        self.entities.write().intern(s, MAX_VID).map(Vid)
    }

    /// Interns a predicate string, returning its (possibly pre-existing) ID.
    pub fn intern_predicate(&self, s: &str) -> Result<Pid, RdfError> {
        if let Some(id) = self.predicates.read().lookup(s) {
            return Ok(Pid(id));
        }
        self.predicates
            .write()
            .intern(s, MAX_PID)
            .map(Pid)
            .map_err(|_| RdfError::PidOverflow(MAX_PID + 1))
    }

    /// Looks up an already-interned entity without creating it.
    pub fn entity_id(&self, s: &str) -> Result<Vid, RdfError> {
        self.entities
            .read()
            .lookup(s)
            .map(Vid)
            .ok_or_else(|| RdfError::UnknownString(s.to_owned()))
    }

    /// Looks up an already-interned predicate without creating it.
    pub fn predicate_id(&self, s: &str) -> Result<Pid, RdfError> {
        self.predicates
            .read()
            .lookup(s)
            .map(Pid)
            .ok_or_else(|| RdfError::UnknownString(s.to_owned()))
    }

    /// Resolves an entity ID back to its string.
    pub fn entity_name(&self, vid: Vid) -> Result<String, RdfError> {
        self.entities
            .read()
            .resolve(vid.0)
            .map(str::to_owned)
            .ok_or(RdfError::UnknownId(vid.0))
    }

    /// Resolves a predicate ID back to its string.
    pub fn predicate_name(&self, pid: Pid) -> Result<String, RdfError> {
        self.predicates
            .read()
            .resolve(pid.0)
            .map(str::to_owned)
            .ok_or(RdfError::UnknownId(pid.0))
    }

    /// Length-only resolution for many IDs at once: each space's read
    /// guard is taken here, once, and released when the value drops.
    pub fn name_lens(&self) -> NameLens<'_> {
        NameLens {
            entities: self.entities.read(),
            predicates: self.predicates.read(),
        }
    }

    /// Number of distinct predicates interned so far.
    pub fn predicate_count(&self) -> usize {
        self.predicates.read().reverse.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let ss = StringServer::new();
        let a = ss.intern_entity("a").unwrap();
        let b = ss.intern_entity("b").unwrap();
        assert_ne!(a, b);
        assert_eq!(ss.intern_entity("a").unwrap(), a);
        assert_eq!(ss.entities.read().reverse.len(), 2);
    }

    #[test]
    fn ids_start_at_one() {
        let ss = StringServer::new();
        assert_eq!(ss.intern_entity("x").unwrap(), Vid(1));
        assert_eq!(ss.intern_predicate("p").unwrap(), Pid(1));
    }

    #[test]
    fn lookup_without_intern_fails() {
        let ss = StringServer::new();
        assert!(ss.entity_id("nope").is_err());
        assert!(ss.predicate_id("nope").is_err());
        assert!(ss.entity_name(Vid(5)).is_err());
        assert!(ss.predicate_name(Pid(5)).is_err());
    }

    #[test]
    fn name_lens_match_the_cloning_accessors() {
        let ss = StringServer::new();
        for i in 0..200 {
            ss.intern_entity(&"e".repeat(i % 17 + 1)).unwrap();
            ss.intern_predicate(&"p".repeat(i % 5 + 1)).unwrap();
        }
        let lens = ss.name_lens();
        // Every interned ID, the reserved slot 0, and IDs past the end.
        for id in (0..40).chain([MAX_VID, u64::MAX]) {
            assert_eq!(
                lens.entity(Vid(id)),
                ss.entity_name(Vid(id)).ok().map(|s| s.len()),
                "entity {id}"
            );
            assert_eq!(
                lens.predicate(Pid(id)),
                ss.predicate_name(Pid(id)).ok().map(|s| s.len()),
                "predicate {id}"
            );
        }
    }

    #[test]
    fn entity_and_predicate_spaces_are_separate() {
        let ss = StringServer::new();
        let v = ss.intern_entity("same").unwrap();
        let p = ss.intern_predicate("same").unwrap();
        assert_eq!(v, Vid(1));
        assert_eq!(p, Pid(1));
        assert_eq!(ss.entity_name(v).unwrap(), "same");
        assert_eq!(ss.predicate_name(p).unwrap(), "same");
    }

    #[test]
    fn roundtrip_many() {
        let ss = StringServer::new();
        let ids: Vec<_> = (0..1000)
            .map(|i| ss.intern_entity(&format!("e{i}")).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(ss.entity_name(*id).unwrap(), format!("e{i}"));
        }
    }

    #[test]
    fn concurrent_intern_agrees() {
        use std::sync::Arc;
        let ss = Arc::new(StringServer::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ss = Arc::clone(&ss);
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| ss.intern_entity(&format!("e{i}")).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Vid>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(ss.entities.read().reverse.len(), 100);
    }
}
