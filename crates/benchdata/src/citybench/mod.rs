//! A CityBench-style smart-city workload (§6.1, Table 1; §6.10, Table 9).
//!
//! CityBench \[12\] replays IoT sensor feeds from the city of Aarhus:
//! tiny stored data (sensor/road/parking metadata, 139 K triples in the
//! paper) and eleven very low-rate RDF streams. This generator reproduces
//! the structure: 11 streams at the paper's default rates, sensor
//! *readings as timing data* (they expire with the window — the transient
//! store's main customer), and 11 continuous query classes that join one
//! or two streams with the stored metadata, several with `FILTER`s and
//! aggregates.
//!
//! Streams (paper default rates, tuples/s): VT1 19, VT2 19, WT 12, UL 7,
//! PK1 4, PK2 4, PL1-PL5 4 each.

mod queries;

use crate::timeline::{merge, spread, TimedTuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wukong_rdf::{Pid, StreamId, StringServer, Timestamp, Triple, Vid};
use wukong_stream::StreamSchema;

/// Stream indices.
pub const VT1: usize = 0;
/// Second vehicle-traffic stream.
pub const VT2: usize = 1;
/// Weather stream.
pub const WT: usize = 2;
/// User-location stream.
pub const UL: usize = 3;
/// First parking stream.
pub const PK1: usize = 4;
/// Second parking stream.
pub const PK2: usize = 5;
/// First of the five pollution streams (PL1-PL5 are 6..=10).
pub const PL1: usize = 6;

/// The paper's default stream rates, tuples/second (Table 1).
pub const PAPER_RATES: [f64; 11] = [19.0, 19.0, 12.0, 7.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0];

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct CityBenchConfig {
    /// Traffic sensors per VT stream.
    pub traffic_sensors: usize,
    /// Parking lots per PK stream.
    pub parking_lots: usize,
    /// Pollution sensors per PL stream.
    pub pollution_sensors: usize,
    /// Roads in the metadata graph.
    pub roads: usize,
    /// Places of interest.
    pub places: usize,
    /// Mobile users on the UL stream.
    pub users: usize,
    /// Multiplier on the paper's default stream rates.
    pub rate_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CityBenchConfig {
    fn default() -> Self {
        CityBenchConfig {
            traffic_sensors: 64,
            parking_lots: 16,
            pollution_sensors: 16,
            roads: 48,
            places: 24,
            users: 32,
            rate_scale: 1.0,
            seed: 42,
        }
    }
}

impl CityBenchConfig {
    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

pub(crate) struct Preds {
    pub speed: Pid,
    pub vac: Pid,
    pub temp: Pid,
    pub at: Pid,
    pub pol: Pid,
    pub on_road: Pid,
    pub conn: Pid,
    pub loc_at: Pid,
}

/// The CityBench-style workload generator.
pub struct CityBench {
    cfg: CityBenchConfig,
    ss: Arc<StringServer>,
    rng: StdRng,
    pub(crate) preds: Preds,
    vt_sensors: [Vec<Vid>; 2],
    lots: [Vec<Vid>; 2],
    pl_sensors: Vec<Vec<Vid>>,
    users: Vec<Vid>,
    places: Vec<Vid>,
    station: Vid,
    /// Readings quantised to integers 0-99, interned once.
    values: Vec<Vid>,
}

impl CityBench {
    /// Creates a generator over the given string server.
    pub fn new(cfg: CityBenchConfig, ss: Arc<StringServer>) -> Self {
        let e = |s: &str| ss.intern_entity(s).expect("id space");
        let p = |s: &str| ss.intern_predicate(s).expect("id space");
        let preds = Preds {
            speed: p("speed"),
            vac: p("vac"),
            temp: p("temp"),
            at: p("at"),
            pol: p("pol"),
            on_road: p("onRoad"),
            conn: p("conn"),
            loc_at: p("locAt"),
        };
        let vt_sensors = [
            (0..cfg.traffic_sensors)
                .map(|i| e(&format!("vt1s{i}")))
                .collect(),
            (0..cfg.traffic_sensors)
                .map(|i| e(&format!("vt2s{i}")))
                .collect(),
        ];
        let lots = [
            (0..cfg.parking_lots)
                .map(|i| e(&format!("pk1l{i}")))
                .collect(),
            (0..cfg.parking_lots)
                .map(|i| e(&format!("pk2l{i}")))
                .collect(),
        ];
        let pl_sensors = (0..5)
            .map(|s| {
                (0..cfg.pollution_sensors)
                    .map(|i| e(&format!("pl{s}s{i}")))
                    .collect()
            })
            .collect();
        let users = (0..cfg.users).map(|i| e(&format!("cu{i}"))).collect();
        let places = (0..cfg.places).map(|i| e(&format!("place{i}"))).collect();
        let station = e("weather0");
        let values = (0..100).map(|v| e(&format!("{v}"))).collect();
        CityBench {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            ss,
            preds,
            vt_sensors,
            lots,
            pl_sensors,
            users,
            places,
            station,
            values,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CityBenchConfig {
        &self.cfg
    }

    /// The string server names were interned into.
    pub fn strings(&self) -> &Arc<StringServer> {
        &self.ss
    }

    /// Generates the stored metadata graph.
    pub fn stored_triples(&mut self) -> Vec<Triple> {
        let e = |ss: &StringServer, s: &str| ss.intern_entity(s).expect("id space");
        let mut out = Vec::new();
        let roads: Vec<Vid> = (0..self.cfg.roads)
            .map(|i| e(&self.ss, &format!("road{i}")))
            .collect();
        // Roads connect places (a small connected mesh).
        for (i, &r) in roads.iter().enumerate() {
            let a = self.places[i % self.places.len()];
            let b = self.places[(i + 1) % self.places.len()];
            out.push(Triple::new(r, self.preds.conn, a));
            out.push(Triple::new(r, self.preds.conn, b));
        }
        // Traffic sensors sit on roads.
        for set in &self.vt_sensors {
            for (i, &s) in set.iter().enumerate() {
                out.push(Triple::new(s, self.preds.on_road, roads[i % roads.len()]));
            }
        }
        // Parking lots sit at places.
        for set in &self.lots {
            for (i, &l) in set.iter().enumerate() {
                out.push(Triple::new(
                    l,
                    self.preds.loc_at,
                    self.places[i % self.places.len()],
                ));
            }
        }
        // Pollution sensors sit at places.
        for set in &self.pl_sensors {
            for (i, &s) in set.iter().enumerate() {
                out.push(Triple::new(
                    s,
                    self.preds.at,
                    self.places[i % self.places.len()],
                ));
            }
        }
        out
    }

    /// The eleven stream schemas. Batch interval 1 s (windows are 3 s/1 s,
    /// §6.1); every reading predicate is timing data.
    pub fn schemas(&self) -> Vec<StreamSchema> {
        let names = [
            "VT1", "VT2", "WT", "UL", "PK1", "PK2", "PL1", "PL2", "PL3", "PL4", "PL5",
        ];
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut s = StreamSchema::timeless(StreamId(i as u16), *name, 1_000);
                for p in [
                    self.preds.speed,
                    self.preds.vac,
                    self.preds.temp,
                    self.preds.at,
                    self.preds.pol,
                ] {
                    s.timing_predicates.insert(p);
                }
                s
            })
            .collect()
    }

    /// Scaled per-stream rates, tuples/second.
    pub fn rates(&self) -> [f64; 11] {
        PAPER_RATES.map(|r| r * self.cfg.rate_scale)
    }

    fn value(&mut self, lo: usize, hi: usize) -> Vid {
        self.values[self.rng.gen_range(lo..hi)]
    }

    /// Generates all streams' tuples in `[from, to)`, time-ordered.
    pub fn generate(&mut self, from: Timestamp, to: Timestamp) -> Vec<TimedTuple> {
        let rates = self.rates();
        let mut streams = Vec::with_capacity(11);
        for (s, &rate) in rates.iter().enumerate() {
            let times = spread(rate, from, to);
            let mut tuples = Vec::with_capacity(times.len());
            for ts in times {
                let triple = match s {
                    VT1 | VT2 => {
                        let set = &self.vt_sensors[s];
                        let sensor = set[self.rng.gen_range(0..set.len())];
                        let v = self.value(0, 100);
                        Triple::new(sensor, self.preds.speed, v)
                    }
                    WT => {
                        let v = self.value(0, 45);
                        Triple::new(self.station, self.preds.temp, v)
                    }
                    UL => {
                        let u = self.users[self.rng.gen_range(0..self.users.len())];
                        let p = self.places[self.rng.gen_range(0..self.places.len())];
                        Triple::new(u, self.preds.at, p)
                    }
                    PK1 | PK2 => {
                        let set = &self.lots[s - PK1];
                        let lot = set[self.rng.gen_range(0..set.len())];
                        let v = self.value(0, 60);
                        Triple::new(lot, self.preds.vac, v)
                    }
                    _ => {
                        let set = &self.pl_sensors[s - PL1];
                        let sensor = set[self.rng.gen_range(0..set.len())];
                        let v = self.value(0, 100);
                        Triple::new(sensor, self.preds.pol, v)
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

    /// A deterministic traffic-sensor name for query variants.
    pub(crate) fn vt_sensor_name(&self, set: usize, variant: usize) -> String {
        format!(
            "vt{}s{}",
            set + 1,
            (variant * 31) % self.cfg.traffic_sensors
        )
    }

    /// A deterministic parking-lot name for query variants.
    pub(crate) fn lot_name(&self, set: usize, variant: usize) -> String {
        format!("pk{}l{}", set + 1, (variant * 13) % self.cfg.parking_lots)
    }

    /// A deterministic user name for query variants.
    pub(crate) fn user_name(&self, variant: usize) -> String {
        format!("cu{}", (variant * 17) % self.cfg.users)
    }
}

pub use queries::{continuous_query, CONTINUOUS_CLASSES};

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> CityBench {
        CityBench::new(CityBenchConfig::default(), Arc::new(StringServer::new()))
    }

    #[test]
    fn eleven_streams_at_paper_rates() {
        let mut b = bench();
        let tuples = b.generate(0, 60_000);
        for (s, rate) in PAPER_RATES.iter().enumerate() {
            let count = tuples
                .iter()
                .filter(|t| t.stream == StreamId(s as u16))
                .count();
            let expect = rate * 60.0;
            assert!(
                (count as f64 - expect).abs() <= expect * 0.2 + 2.0,
                "stream {s}: {count} vs {expect}"
            );
        }
    }

    #[test]
    fn all_readings_are_timing() {
        let b = bench();
        for s in b.schemas() {
            assert!(!s.timing_predicates.is_empty());
        }
    }

    #[test]
    fn stored_metadata_connects_sensors_to_places() {
        let mut b = bench();
        let triples = b.stored_triples();
        assert!(triples.len() > 100);
        let on_road = triples.iter().filter(|t| t.p == b.preds.on_road).count();
        assert_eq!(on_road, b.cfg.traffic_sensors * 2);
    }

    #[test]
    fn readings_parse_as_numbers() {
        let mut b = bench();
        let tuples = b.generate(0, 10_000);
        let speeds: Vec<_> = tuples
            .iter()
            .filter(|t| t.triple.p == b.preds.speed)
            .collect();
        assert!(!speeds.is_empty());
        for t in speeds {
            let name = b.strings().entity_name(t.triple.o).unwrap();
            assert!(name.parse::<f64>().is_ok(), "{name} not numeric");
        }
    }
}
