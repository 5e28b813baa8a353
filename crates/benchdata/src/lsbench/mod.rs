//! An LSBench-style social-network workload (§6.1, Table 1).
//!
//! LSBench \[28\] models a social network: stored data holds user profiles,
//! friendship (follow) edges and an initial post/photo corpus; five
//! streams carry ongoing activity. This generator reproduces the schema,
//! the five streams at the paper's default rates (scaled by
//! [`LsBenchConfig::rate_scale`]), and the two query-class groups the
//! evaluation distinguishes: selective, fixed-result queries (L1-L3) and
//! non-selective queries whose results grow with data size (L4-L6), plus
//! six one-shot classes (S1-S6) for the Table 8 experiment.
//!
//! Streams (paper default rates):
//!
//! | # | Stream | Content | Rate | Kind |
//! |---|--------|---------|------|------|
//! | 0 | PO    | `⟨user, po, post⟩` and `⟨post, ht, tag⟩` | 10 K/s | timeless |
//! | 1 | PO-L  | `⟨user, li, post⟩` | 86 K/s | timeless |
//! | 2 | PH    | `⟨user, ph, photo⟩` | 10 K/s | timeless |
//! | 3 | PH-L  | `⟨user, pl, photo⟩` | 7.5 K/s | timeless |
//! | 4 | GPS   | `⟨user, ga, cell⟩` | 20 K/s | timing |

mod queries;

use crate::timeline::{merge, spread, TimedTuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use wukong_rdf::{Pid, StreamId, StringServer, Timestamp, Triple, Vid};
use wukong_stream::StreamSchema;

/// The paper's default stream rates, tuples/second (Table 1).
pub const PAPER_RATES: [f64; 5] = [10_000.0, 86_000.0, 10_000.0, 7_500.0, 20_000.0];

/// Stream indices.
pub const PO: usize = 0;
/// Post-like stream.
pub const POL: usize = 1;
/// Photo stream.
pub const PH: usize = 2;
/// Photo-like stream.
pub const PHL: usize = 3;
/// GPS stream (timing data).
pub const GPS: usize = 4;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct LsBenchConfig {
    /// Number of users in the stored graph.
    pub users: usize,
    /// Follow edges per user.
    pub follows_per_user: usize,
    /// Initial posts per user.
    pub posts_per_user: usize,
    /// Initial likes per user.
    pub likes_per_user: usize,
    /// Initial photos per user.
    pub photos_per_user: usize,
    /// Distinct hashtags.
    pub hashtags: usize,
    /// Distinct GPS cells.
    pub gps_cells: usize,
    /// Multiplier on the paper's default stream rates.
    pub rate_scale: f64,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
}

impl Default for LsBenchConfig {
    fn default() -> Self {
        LsBenchConfig {
            users: 1_000,
            // ≈ the fan-out Fig. 4 implies for GP2 (9,532 results from 831
            // bindings ≈ ×11.5).
            follows_per_user: 12,
            posts_per_user: 10,
            likes_per_user: 10,
            photos_per_user: 4,
            hashtags: 50,
            gps_cells: 256,
            rate_scale: 0.01,
            seed: 42,
        }
    }
}

impl LsBenchConfig {
    /// A smaller configuration for unit tests.
    pub fn tiny() -> Self {
        LsBenchConfig {
            users: 64,
            follows_per_user: 4,
            posts_per_user: 3,
            likes_per_user: 3,
            photos_per_user: 2,
            hashtags: 8,
            gps_cells: 16,
            rate_scale: 0.002,
            seed: 7,
        }
    }

    /// A tiny configuration with an explicit RNG seed, for tests that
    /// check same-seed reproducibility.
    pub fn tiny_seeded(seed: u64) -> Self {
        LsBenchConfig {
            seed,
            ..Self::tiny()
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

pub(crate) struct Preds {
    pub ty: Pid,
    pub fo: Pid,
    pub po: Pid,
    pub li: Pid,
    pub ht: Pid,
    pub ph: Pid,
    pub pl: Pid,
    pub ga: Pid,
    /// Post metadata (creation date, length, language, …) — the bulk of
    /// a post event's triples on the PO stream.
    pub pm: Pid,
}

/// The LSBench-style workload generator.
pub struct LsBench {
    cfg: LsBenchConfig,
    ss: Arc<StringServer>,
    rng: StdRng,
    pub(crate) preds: Preds,
    users: Vec<Vid>,
    posts: Vec<Vid>,
    photos: Vec<Vid>,
    tags: Vec<Vid>,
    cells: Vec<Vid>,
    metas: Vec<Vid>,
    user_type: Vid,
    /// Recently generated stream posts/photos — like streams target them
    /// so stream-stream joins produce matches.
    recent_posts: VecDeque<Vid>,
    recent_photos: VecDeque<Vid>,
    next_post: u64,
    next_photo: u64,
}

impl LsBench {
    /// Creates a generator over the given string server.
    pub fn new(cfg: LsBenchConfig, ss: Arc<StringServer>) -> Self {
        let e = |s: &str| ss.intern_entity(s).expect("id space");
        let p = |s: &str| ss.intern_predicate(s).expect("id space");
        let preds = Preds {
            ty: p("ty"),
            fo: p("fo"),
            po: p("po"),
            li: p("li"),
            ht: p("ht"),
            ph: p("ph"),
            pl: p("pl"),
            ga: p("ga"),
            pm: p("pm"),
        };
        let users = (0..cfg.users).map(|i| e(&format!("u{i}"))).collect();
        let posts = (0..cfg.users * cfg.posts_per_user)
            .map(|i| e(&format!("p{i}")))
            .collect();
        let photos = (0..cfg.users * cfg.photos_per_user)
            .map(|i| e(&format!("f{i}")))
            .collect();
        let tags = (0..cfg.hashtags).map(|i| e(&format!("#tag{i}"))).collect();
        let cells = (0..cfg.gps_cells).map(|i| e(&format!("cell{i}"))).collect();
        let metas = (0..64).map(|i| e(&format!("meta{i}"))).collect();
        let user_type = e("User");
        let rng = StdRng::seed_from_u64(cfg.seed);
        LsBench {
            cfg,
            ss,
            rng,
            preds,
            users,
            posts,
            photos,
            tags,
            cells,
            metas,
            user_type,
            recent_posts: VecDeque::new(),
            recent_photos: VecDeque::new(),
            next_post: 0,
            next_photo: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LsBenchConfig {
        &self.cfg
    }

    /// The string server names were interned into.
    pub fn strings(&self) -> &Arc<StringServer> {
        &self.ss
    }

    /// Generates the initially stored dataset.
    pub fn stored_triples(&mut self) -> Vec<Triple> {
        let mut out = Vec::new();
        let n = self.users.len();
        for i in 0..n {
            let u = self.users[i];
            out.push(Triple::new(u, self.preds.ty, self.user_type));
            for _ in 0..self.cfg.follows_per_user {
                let j = self.rng.gen_range(0..n);
                if j != i {
                    out.push(Triple::new(u, self.preds.fo, self.users[j]));
                }
            }
            for k in 0..self.cfg.posts_per_user {
                let post = self.posts[i * self.cfg.posts_per_user + k];
                out.push(Triple::new(u, self.preds.po, post));
                let tag = self.tags[self.rng.gen_range(0..self.tags.len())];
                out.push(Triple::new(post, self.preds.ht, tag));
            }
            for _ in 0..self.cfg.likes_per_user {
                let post = self.posts[self.rng.gen_range(0..self.posts.len())];
                out.push(Triple::new(u, self.preds.li, post));
            }
            for k in 0..self.cfg.photos_per_user {
                let photo = self.photos[i * self.cfg.photos_per_user + k];
                out.push(Triple::new(u, self.preds.ph, photo));
            }
        }
        out
    }

    /// The five stream schemas (index = stream constant).
    pub fn schemas(&self) -> Vec<StreamSchema> {
        let names = ["PO", "PO-L", "PH", "PH-L", "GPS"];
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut s = StreamSchema::timeless(StreamId(i as u16), *name, 100);
                if i == GPS {
                    s.timing_predicates.insert(self.preds.ga);
                }
                s
            })
            .collect()
    }

    /// Scaled per-stream rates, tuples/second.
    pub fn rates(&self) -> [f64; 5] {
        PAPER_RATES.map(|r| r * self.cfg.rate_scale)
    }

    fn rand_user(&mut self) -> Vid {
        self.users[self.rng.gen_range(0..self.users.len())]
    }

    fn like_target(&mut self, photos: bool) -> Vid {
        let (recent, stored) = if photos {
            (&self.recent_photos, &self.photos)
        } else {
            (&self.recent_posts, &self.posts)
        };
        // Likes overwhelmingly target *very recent* content (the paper's
        // Fig. 4 shows nearly every windowed like joining a windowed
        // post); a smaller share revisits the stored corpus, which is
        // what keeps one-shot queries and stored-graph joins non-empty.
        if !recent.is_empty() && self.rng.gen_bool(0.85) {
            let tail = recent.len().min(128);
            let i = recent.len() - 1 - self.rng.gen_range(0..tail);
            recent[i]
        } else {
            stored[self.rng.gen_range(0..stored.len())]
        }
    }

    /// Generates all five streams' tuples in `[from, to)`, time-ordered.
    pub fn generate(&mut self, from: Timestamp, to: Timestamp) -> Vec<TimedTuple> {
        let rates = self.rates();
        let mut streams = Vec::with_capacity(5);
        for (s, &rate) in rates.iter().enumerate() {
            let times = spread(rate, from, to);
            let mut tuples = Vec::with_capacity(times.len());
            for ts in times {
                let triple = match s {
                    PO => {
                        // A post event emits several triples on the PO
                        // stream: the post itself, a hashtag, and a tail
                        // of metadata. Posts are therefore a small
                        // fraction of the window — Fig. 4's GP1 matches
                        // 831 tuples out of a much larger PO window.
                        let phase = self.next_post % 6;
                        self.next_post += 1;
                        if phase == 0 || self.recent_posts.is_empty() {
                            let name = format!("sp{}", self.next_post);
                            let post = self.ss.intern_entity(&name).expect("id space");
                            self.recent_posts.push_back(post);
                            if self.recent_posts.len() > 4_096 {
                                self.recent_posts.pop_front();
                            }
                            let u = self.rand_user();
                            Triple::new(u, self.preds.po, post)
                        } else if phase == 1 {
                            let post = *self.recent_posts.back().expect("post exists");
                            let tag = self.tags[self.rng.gen_range(0..self.tags.len())];
                            Triple::new(post, self.preds.ht, tag)
                        } else {
                            let post = *self.recent_posts.back().expect("post exists");
                            let m = self.metas[self.rng.gen_range(0..self.metas.len())];
                            Triple::new(post, self.preds.pm, m)
                        }
                    }
                    POL => {
                        let u = self.rand_user();
                        let t = self.like_target(false);
                        Triple::new(u, self.preds.li, t)
                    }
                    PH => {
                        let name = format!("sf{}", self.next_photo);
                        let photo = self.ss.intern_entity(&name).expect("id space");
                        self.next_photo += 1;
                        self.recent_photos.push_back(photo);
                        if self.recent_photos.len() > 4_096 {
                            self.recent_photos.pop_front();
                        }
                        let u = self.rand_user();
                        Triple::new(u, self.preds.ph, photo)
                    }
                    PHL => {
                        let u = self.rand_user();
                        let t = self.like_target(true);
                        Triple::new(u, self.preds.pl, t)
                    }
                    _ => {
                        let u = self.rand_user();
                        let c = self.cells[self.rng.gen_range(0..self.cells.len())];
                        Triple::new(u, self.preds.ga, c)
                    }
                };
                tuples.push(TimedTuple {
                    stream: StreamId(s as u16),
                    triple,
                    timestamp: ts,
                });
            }
            streams.push(tuples);
        }
        merge(streams)
    }

    /// A deterministic "random" user name for query variants.
    pub(crate) fn user_name(&self, variant: usize) -> String {
        format!("u{}", (variant * 7_919) % self.cfg.users)
    }

    /// A deterministic post name for query variants.
    pub(crate) fn post_name(&self, variant: usize) -> String {
        format!(
            "p{}",
            (variant * 104_729) % (self.cfg.users * self.cfg.posts_per_user)
        )
    }

    /// A deterministic hashtag name for query variants.
    pub(crate) fn tag_name(&self, variant: usize) -> String {
        format!("#tag{}", variant % self.cfg.hashtags)
    }
}

pub use queries::{continuous_query, oneshot_query, CONTINUOUS_CLASSES, ONESHOT_CLASSES};

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> LsBench {
        LsBench::new(LsBenchConfig::tiny(), Arc::new(StringServer::new()))
    }

    #[test]
    fn stored_data_has_expected_shape() {
        let mut b = bench();
        let triples = b.stored_triples();
        // At least: type + posts(×2) + photos per user.
        let min = b.cfg.users * (1 + b.cfg.posts_per_user * 2 + b.cfg.photos_per_user);
        assert!(triples.len() >= min, "{} < {min}", triples.len());
        // Deterministic per seed.
        let mut b2 = LsBench::new(LsBenchConfig::tiny(), Arc::new(StringServer::new()));
        assert_eq!(b2.stored_triples().len(), triples.len());
    }

    #[test]
    fn stream_rates_respected() {
        let mut b = bench();
        let tuples = b.generate(0, 10_000);
        let rates = b.rates();
        for (s, rate) in rates.iter().enumerate() {
            let count = tuples
                .iter()
                .filter(|t| t.stream == StreamId(s as u16))
                .count();
            let expect = rate * 10.0;
            assert!(
                (count as f64 - expect).abs() <= expect * 0.2 + 2.0,
                "stream {s}: {count} vs {expect}"
            );
        }
        // Time-ordered.
        assert!(tuples.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn gps_is_timing_everything_else_timeless() {
        let b = bench();
        let schemas = b.schemas();
        assert_eq!(schemas.len(), 5);
        assert!(schemas[GPS].timing_predicates.contains(&b.preds.ga));
        for s in [PO, POL, PH, PHL] {
            assert!(schemas[s].timing_predicates.is_empty());
        }
    }

    #[test]
    fn like_streams_reference_known_targets() {
        let mut b = bench();
        b.stored_triples();
        let tuples = b.generate(0, 60_000);
        let likes: Vec<_> = tuples
            .iter()
            .filter(|t| t.stream == StreamId(POL as u16))
            .collect();
        assert!(!likes.is_empty());
        // Every like target resolves to a post entity (stored or stream).
        for l in &likes {
            let name = b.strings().entity_name(l.triple.o).unwrap();
            assert!(
                name.starts_with('p') || name.starts_with("sp"),
                "unexpected like target {name}"
            );
        }
    }

    #[test]
    fn variant_names_resolve() {
        let mut b = bench();
        b.stored_triples();
        for v in 0..20 {
            assert!(b.strings().entity_id(&b.user_name(v)).is_ok());
            assert!(b.strings().entity_id(&b.post_name(v)).is_ok());
            assert!(b.strings().entity_id(&b.tag_name(v)).is_ok());
        }
    }
}
