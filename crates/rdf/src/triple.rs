//! ID-encoded RDF triples.

use crate::id::{Dir, Key, Pid, Vid};

/// An RDF triple after string → ID conversion.
///
/// All query processing and storage in Wukong+S operates on ID-encoded
/// triples; the original strings live only in the [`crate::StringServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject vertex.
    pub s: Vid,
    /// Predicate (edge label).
    pub p: Pid,
    /// Object vertex.
    pub o: Vid,
}

impl Triple {
    /// Creates a triple from its three components.
    pub fn new(s: Vid, p: Pid, o: Vid) -> Self {
        Triple { s, p, o }
    }

    /// The store key under which this triple's *out*-edge is recorded
    /// (`[s | p | out] → … o …`).
    pub fn out_key(&self) -> Key {
        Key::new(self.s, self.p, Dir::Out)
    }

    /// The store key under which this triple's *in*-edge is recorded
    /// (`[o | p | in] → … s …`).
    pub fn in_key(&self) -> Key {
        Key::new(self.o, self.p, Dir::In)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_of_triple() {
        let t = Triple::new(Vid(1), Pid(4), Vid(7));
        assert_eq!(t.out_key(), Key::new(Vid(1), Pid(4), Dir::Out));
        assert_eq!(t.in_key(), Key::new(Vid(7), Pid(4), Dir::In));
    }
}
