//! The experiments, as data: one row of [`ALL`] per table, figure and
//! drill of the evaluation (`wukong-bench --list` prints it; DESIGN.md §3
//! indexes it). Each row's `run` is a plain function over a
//! [`Run`](crate::Run); what several of them repeat lives in
//! [`grid`](crate::grid) and [`replay`](crate::replay).

use crate::run::{Run, Verdict};

mod chaos;
mod durability;
mod latency;
mod maintenance;
mod overload;
mod planner;
mod scaling;
mod store;
mod trace;

/// One experiment of the evaluation.
pub struct Experiment {
    /// The name it is invoked by, and the `experiment` member of its JSON
    /// report.
    pub name: &'static str,
    /// What it reproduces: a table, figure or section of the paper, or
    /// the DESIGN.md section of an engine feature it drills.
    pub paper: &'static str,
    /// One line on what it measures or gates.
    pub about: &'static str,
    /// Runs it.
    pub run: fn(&mut Run) -> Verdict,
}

/// Every experiment, in the order of DESIGN.md §3.
pub const ALL: &[Experiment] = &[
    Experiment {
        name: "fig4_breakdown",
        paper: "Fig. 4",
        about: "Storm+Wukong execution-time breakdown of QC, both composite plans",
        run: latency::fig4_breakdown,
    },
    Experiment {
        name: "table2_latency_single",
        paper: "Table 2",
        about: "single-node latency, LSBench L1-L6: Wukong+S vs Storm+Wukong vs CSPARQL-engine",
        run: latency::table2_latency_single,
    },
    Experiment {
        name: "table3_latency_cluster",
        paper: "Table 3",
        about: "8-node latency, LSBench L1-L6: Wukong+S vs Storm+Wukong vs Spark Streaming",
        run: latency::table3_latency_cluster,
    },
    Experiment {
        name: "table4_latency_more",
        paper: "Table 4",
        about: "8-node latency: Heron+Wukong, Structured Streaming, Wukong/Ext",
        run: latency::table4_latency_more,
    },
    Experiment {
        name: "table5_rdma",
        paper: "Table 5",
        about: "RDMA vs TCP fabric on Wukong+S, 8 nodes, with fabric operations per execution",
        run: latency::table5_rdma,
    },
    Experiment {
        name: "table6_injection",
        paper: "Table 6",
        about: "injection + indexing cost per mini-batch, per stream",
        run: store::table6_injection,
    },
    Experiment {
        name: "table7_memory",
        paper: "Table 7",
        about: "raw stream data vs stream index memory, per stream",
        run: store::table7_memory,
    },
    Experiment {
        name: "table8_oneshot",
        paper: "Table 8",
        about: "one-shot latency S1-S6: static Wukong vs Wukong+S without/with continuous load",
        run: latency::table8_oneshot,
    },
    Experiment {
        name: "table9_citybench",
        paper: "Table 9",
        about: "CityBench C1-C11 latency, single node, vs Storm+Wukong and Spark Streaming",
        run: latency::table9_citybench,
    },
    Experiment {
        name: "fig12_scalability",
        paper: "Fig. 12",
        about: "latency vs cluster size (2-8 nodes), with fabric operations per execution",
        run: latency::fig12_scalability,
    },
    Experiment {
        name: "fig13_stream_rate",
        paper: "Fig. 13",
        about: "latency vs stream rate (x0.25-x4), 8 nodes",
        run: latency::fig13_stream_rate,
    },
    Experiment {
        name: "fig14_throughput_mix3",
        paper: "Fig. 14",
        about: "throughput of the L1-L3 mix vs nodes, latency CDF on 8 nodes",
        run: latency::fig14_throughput_mix3,
    },
    Experiment {
        name: "fig15_throughput_mix6",
        paper: "Fig. 15",
        about: "throughput of the L1-L6 mix vs nodes, latency CDF on 8 nodes",
        run: latency::fig15_throughput_mix6,
    },
    Experiment {
        name: "exp_snapshot_memory",
        paper: "§6.7",
        about: "store footprint with bounded snapshot scalarization vs per-append VTS tags",
        run: store::exp_snapshot_memory,
    },
    Experiment {
        name: "exp_fault_tolerance",
        paper: "§6.8",
        about: "throughput and tail-latency cost of logging + checkpoints",
        run: durability::exp_fault_tolerance,
    },
    Experiment {
        name: "exp_multicore",
        paper: "§6.4",
        about: "latency vs worker cores per query (1/2/4), group II",
        run: latency::exp_multicore,
    },
    Experiment {
        name: "exp_replication",
        paper: "§4.2",
        about: "stream-index replication ablation: latency and one-sided reads per execution",
        run: latency::exp_replication,
    },
    Experiment {
        name: "exp_staleness",
        paper: "§4.3",
        about: "snapshot cadence and one-shot lag vs the SN-VTS staleness bound",
        run: store::exp_staleness,
    },
    Experiment {
        name: "exp_planner",
        paper: "§2.3",
        about: "cost-based plan vs reversed pattern order on the integrated engine",
        run: planner::exp_planner,
    },
    Experiment {
        name: "exp_recovery_drill",
        paper: "§5",
        about: "gate: kill, crash, replay checkpoint+log; firings match a never-failed control",
        run: durability::exp_recovery_drill,
    },
    Experiment {
        name: "exp_worker_scaling",
        paper: "DESIGN §9",
        about: "gate: byte-identical results at 1/2/4/8 workers; modeled speedup at 4 >= 2x",
        run: scaling::exp_worker_scaling,
    },
    Experiment {
        name: "exp_incremental",
        paper: "DESIGN §10",
        about: "gate: delta maintenance byte-identical to recompute; modeled speedup at 75% overlap >= 2x",
        run: maintenance::exp_incremental,
    },
    Experiment {
        name: "exp_overload",
        paper: "DESIGN §11",
        about: "gate: spike + slow node vs bounded ingest; shed, mark, catch up, converge",
        run: overload::exp_overload,
    },
    Experiment {
        name: "exp_adaptive",
        paper: "DESIGN §12",
        about: "gate: adaptive re-planning byte-identical to static; drift gain >= 1.5x, no thrash",
        run: maintenance::exp_adaptive,
    },
    Experiment {
        name: "exp_chaos",
        paper: "DESIGN §13",
        about: "gate: composed-fault schedules x execution modes converge or report; shrinks failures",
        run: chaos::exp_chaos,
    },
    Experiment {
        name: "exp_trace",
        paper: "DESIGN §14",
        about: "gate: tracing on/off byte-identical, bounded overhead, quarantine trace_dump",
        run: trace::exp_trace,
    },
];
