//! `wukong-bench trace <dump.json>` — black-box dump inspector
//! (DESIGN.md §14).
//!
//! Renders a `trace_dump` JSON document (as written by `exp_trace --dump`
//! or embedded in an anomaly report) as text:
//!
//! * the trigger line (marker, firing, batch, payload),
//! * the firing's lineage tree — query, assigned snapshot, window
//!   instances, and the consumed batch ids,
//! * the per-firing stage timeline in causal (sequence) order, with
//!   span nesting and per-span elapsed time.
//!
//! Accepts a single dump object, an array of dumps, or any JSON object
//! with a `dumps` array member. A structurally thin dump still renders
//! with `?` placeholders, so the inspector stays usable on truncated
//! black boxes.

use std::io::{Result, Write};
use wukong_obs::json::Json;

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn str_of(j: Option<&Json>) -> &str {
    j.and_then(Json::as_str).unwrap_or("?")
}

fn num_of(j: Option<&Json>) -> u64 {
    j.and_then(Json::as_u64).unwrap_or(0)
}

fn render_lineage(firing: &Json, out: &mut dyn Write) -> Result<()> {
    writeln!(
        out,
        "  firing #{}  query {}  snapshot {}",
        num_of(firing.get("id")),
        str_of(firing.get("query")),
        num_of(firing.get("snapshot")),
    )?;
    for w in firing.get("windows").and_then(Json::as_arr).unwrap_or(&[]) {
        writeln!(
            out,
            "    window stream {} [{}, {}]",
            num_of(w.get("stream")),
            num_of(w.get("lo")),
            num_of(w.get("hi")),
        )?;
    }
    let batches = firing.get("batches").and_then(Json::as_arr).unwrap_or(&[]);
    for b in batches {
        writeln!(out, "      batch {}", b.as_str().unwrap_or("?"))?;
    }
    if firing.get("lineage_truncated").and_then(Json::as_bool) == Some(true) {
        writeln!(out, "      (lineage truncated)")?;
    }
    Ok(())
}

fn render_timeline(events: &[Json], out: &mut dyn Write) -> Result<()> {
    let mut depth: i64 = 0;
    for ej in events {
        let seq = num_of(ej.get("seq"));
        let firing = num_of(ej.get("firing"));
        let batch = str_of(ej.get("batch"));
        let arg = num_of(ej.get("arg"));
        let kind = str_of(ej.get("kind"));
        let (label, detail) = match kind {
            "exit" => {
                depth = (depth - 1).max(0);
                (format!("exit  {}", str_of(ej.get("stage"))), fmt_ns(arg))
            }
            "enter" => (format!("enter {}", str_of(ej.get("stage"))), String::new()),
            "marker" => (
                format!("mark  {}", str_of(ej.get("marker"))),
                format!("arg={arg}"),
            ),
            other => (format!("?     {other}"), String::new()),
        };
        let ctx = match (firing, batch) {
            (0, "-") => String::new(),
            (0, b) => format!("batch {b}"),
            (f, "-") => format!("firing #{f}"),
            (f, b) => format!("firing #{f} batch {b}"),
        };
        writeln!(
            out,
            "    [{seq:>6}] {:indent$}{label:<24} {detail:<12} {ctx}",
            "",
            indent = (depth.max(0) as usize) * 2,
        )?;
        if kind == "enter" {
            depth += 1;
        }
    }
    Ok(())
}

fn render_dump(dump: &Json, out: &mut dyn Write) -> Result<()> {
    let trigger = dump.get("trigger");
    writeln!(
        out,
        "trace_dump: trigger {}  firing #{}  batch {}  arg {}",
        str_of(trigger.and_then(|t| t.get("marker"))),
        num_of(trigger.and_then(|t| t.get("firing"))),
        str_of(trigger.and_then(|t| t.get("batch"))),
        num_of(trigger.and_then(|t| t.get("arg"))),
    )?;
    if let Some(firing) = dump.get("firing") {
        writeln!(out, "  lineage:")?;
        render_lineage(firing, out)?;
    }
    let linked = dump
        .get("linked_batches")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if !linked.is_empty() {
        let labels: Vec<&str> = linked.iter().map(|b| b.as_str().unwrap_or("?")).collect();
        writeln!(out, "  linked batches: {}", labels.join(" "))?;
    }
    let events = dump.get("events").and_then(Json::as_arr).unwrap_or(&[]);
    writeln!(out, "  timeline ({} events, causal order):", events.len())?;
    render_timeline(events, out)?;
    let evicted = num_of(dump.get("evicted"));
    if evicted > 0 {
        writeln!(out, "  ({evicted} older events evicted by ring wraparound)")?;
    }
    Ok(())
}

/// Collects every `trace_dump` object reachable from the document root.
fn collect_dumps(doc: &Json) -> Vec<&Json> {
    let is_dump = |j: &Json| j.get("kind").and_then(Json::as_str) == Some("trace_dump");
    if is_dump(doc) {
        return vec![doc];
    }
    if let Some(arr) = doc.as_arr() {
        return arr.iter().filter(|j| is_dump(j)).collect();
    }
    if let Some(arr) = doc.get("dumps").and_then(Json::as_arr) {
        return arr.iter().filter(|j| is_dump(j)).collect();
    }
    Vec::new()
}

/// Renders every `trace_dump` object reachable from `doc` to `out`;
/// returns how many there were.
pub fn render(doc: &Json, out: &mut dyn Write) -> Result<usize> {
    let dumps = collect_dumps(doc);
    for (i, d) in dumps.iter().enumerate() {
        if i > 0 {
            writeln!(out)?;
        }
        render_dump(d, out)?;
    }
    Ok(dumps.len())
}
