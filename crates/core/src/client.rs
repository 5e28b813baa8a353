//! The client library and proxies (§3, Fig. 5).
//!
//! "Each client contains a client library that can parse continuous and
//! one-shot queries into a set of stored procedures, which will be
//! immediately executed for one-shot queries or registered for continuous
//! queries … Alternatively, Wukong+S can use a set of dedicated proxies to
//! run the client-side library and balance client requests."
//!
//! [`Client`] parses queries once into [`Prepared`] stored procedures
//! (strings already converted to IDs through the string server, so no
//! long strings cross the wire, §3) and submits them through a
//! round-robin [`ProxyPool`].

use crate::engine::{ContinuousId, WukongS};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wukong_query::{parse_query, Query, QueryError, QueryKind, ResultSet};

/// A parsed, ID-resolved query — the client library's stored procedure.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(crate) query: Query,
    /// The original text (re-registration after failover, checkpoints).
    pub text: String,
}

impl Prepared {
    /// Whether this procedure registers a continuous query.
    pub(crate) fn is_continuous(&self) -> bool {
        self.query.kind == QueryKind::Continuous
    }

    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }
}

/// A set of proxies balancing client requests across the deployment.
///
/// In this in-process reproduction every proxy fronts the same engine;
/// the pool's job is the paper-visible behaviour — spreading request
/// handling and giving clients one handle to prepare/submit through.
pub struct ProxyPool {
    engine: Arc<WukongS>,
    proxies: usize,
    next: AtomicUsize,
    /// Per-proxy counters of requests handled (load-balance visibility).
    handled: Vec<Mutex<u64>>,
}

impl ProxyPool {
    /// Creates a pool of `proxies` proxies over `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `proxies` is zero.
    pub fn new(engine: Arc<WukongS>, proxies: usize) -> Self {
        assert!(proxies > 0, "a proxy pool needs at least one proxy");
        ProxyPool {
            engine,
            proxies,
            next: AtomicUsize::new(0),
            handled: (0..proxies).map(|_| Mutex::new(0)).collect(),
        }
    }

    fn pick(&self) -> usize {
        let p = self.next.fetch_add(1, Ordering::Relaxed) % self.proxies;
        *self.handled[p].lock() += 1;
        p
    }

    /// Requests handled by each proxy so far.
    pub fn load(&self) -> Vec<u64> {
        self.handled.iter().map(|h| *h.lock()).collect()
    }

    /// The engine behind the pool.
    pub fn engine(&self) -> &Arc<WukongS> {
        &self.engine
    }
}

/// A client of a Wukong+S deployment.
pub struct Client {
    pool: Arc<ProxyPool>,
}

impl Client {
    /// Connects a client through `pool`.
    pub fn connect(pool: Arc<ProxyPool>) -> Self {
        Client { pool }
    }

    /// Parses `text` into a stored procedure (client-side: strings are
    /// interned into IDs here, before anything reaches a server).
    pub(crate) fn prepare(&self, text: &str) -> Result<Prepared, QueryError> {
        let query = parse_query(self.pool.engine.strings(), text)?;
        Ok(Prepared {
            query,
            text: text.to_owned(),
        })
    }

    /// Submits a stored procedure: continuous queries register, one-shot
    /// queries execute immediately.
    pub fn submit(&self, p: &Prepared) -> Result<Submitted, QueryError> {
        let _proxy = self.pool.pick();
        if p.is_continuous() {
            Ok(Submitted::Registered(
                self.pool.engine.register_continuous(&p.text)?,
            ))
        } else {
            let (results, latency_ms) = self.pool.engine.one_shot(&p.text)?;
            Ok(Submitted::Results {
                results,
                latency_ms,
            })
        }
    }

    /// Convenience: parse and submit in one step.
    pub fn query(&self, text: &str) -> Result<Submitted, QueryError> {
        let p = self.prepare(text)?;
        self.submit(&p)
    }

    /// Executes a registered continuous query against its current windows
    /// (the throughput-test path).
    pub fn execute(&self, id: ContinuousId) -> (ResultSet, f64) {
        let _proxy = self.pool.pick();
        self.pool.engine.execute_registered(id)
    }
}

/// Outcome of a submission.
#[derive(Debug)]
pub enum Submitted {
    /// A continuous query was registered.
    Registered(ContinuousId),
    /// A one-shot query ran.
    Results {
        /// The projected result set.
        results: ResultSet,
        /// Total latency, ms.
        latency_ms: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use wukong_rdf::{ntriples, StreamId};
    use wukong_stream::StreamSchema;

    fn pool() -> Arc<ProxyPool> {
        let engine = Arc::new(WukongS::new(EngineConfig::single_node()));
        let ss = engine.strings();
        engine.load_base(
            ntriples::parse_document(ss, "Logan fo Erik\nLogan po T-13\n").expect("parses"),
        );
        engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
        Arc::new(ProxyPool::new(engine, 3))
    }

    #[test]
    fn oneshot_roundtrip_through_client() {
        let client = Client::connect(pool());
        match client
            .query("SELECT ?X WHERE { Logan po ?X }")
            .expect("runs")
        {
            Submitted::Results { results, .. } => assert_eq!(results.rows.len(), 1),
            other => panic!("expected results, got {other:?}"),
        }
    }

    #[test]
    fn continuous_registration_through_client() {
        let pool = pool();
        let client = Client::connect(Arc::clone(&pool));
        let p = client
            .prepare(
                "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 1s STEP 100ms] \
                 WHERE { GRAPH PO { Logan po ?Z } }",
            )
            .expect("parses");
        assert!(p.is_continuous());
        let id = match client.submit(&p).expect("registers") {
            Submitted::Registered(id) => id,
            other => panic!("expected registration, got {other:?}"),
        };
        assert_eq!(pool.engine().continuous_count(), 1);
        let (rs, _) = client.execute(id);
        assert!(rs.is_empty(), "no stream data yet");
    }

    #[test]
    fn proxies_balance_requests() {
        let pool = pool();
        let client = Client::connect(Arc::clone(&pool));
        for _ in 0..9 {
            let _ = client.query("SELECT ?X WHERE { Logan po ?X }");
        }
        let load = pool.load();
        assert_eq!(load.len(), 3);
        assert!(load.iter().all(|&l| l == 3), "uneven load: {load:?}");
    }

    #[test]
    fn prepare_rejects_bad_queries() {
        let client = Client::connect(pool());
        assert!(client.prepare("SELECT WHERE {}").is_err());
        assert!(client.prepare("nonsense").is_err());
    }
}
