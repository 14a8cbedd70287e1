//! Shared machine-readable schemas for the committed `BENCH_*.json`
//! artifacts.
//!
//! Two record shapes cover every artifact in the workspace:
//!
//! * [`SpeedupRecord`] — an old-vs-new comparison on a fixed instance
//!   (`name`, `instance`, `old_ms`, `new_ms`, `speedup`), so the perf
//!   trajectory across PRs stays diffable by machines (and humans)
//!   without parsing per-bench formats.
//! * [`SweepCellRecord`] — one scenario-sweep grid cell (topology /
//!   scenario / traffic / backend coordinates plus throughput, certified
//!   gap, the per-cell hop bound, and settle counts), the shape
//!   `topobench sweep --json` and the sweep bench emit.
//!
//! Both are written with the workspace's one JSON module
//! ([`dctopo_obs::Json`]) as an array with one record per line; absent
//! and non-finite numbers are `null`.
//!
//! Benches call [`emit_from_env`] after their correctness gate: when the
//! `DCTOPO_BENCH_JSON` environment variable names a path, the records
//! are written there (and the path echoed to stderr); otherwise the call
//! is a no-op, so `cargo bench` runs stay side-effect free by default.
//! Sweep cell records use the `DCTOPO_SWEEP_JSON` variable the same way
//! (see [`emit_cells_from_env`]).
//!
//! ```text
//! DCTOPO_BENCH_JSON=BENCH_fptas.json cargo bench -p dctopo-bench --bench fptas_fast
//! DCTOPO_BENCH_JSON=BENCH_sweep.json DCTOPO_SWEEP_JSON=SWEEP_cells.json \
//!     cargo bench -p dctopo-bench --bench sweep
//! ```

use std::io;

use dctopo_core::SweepCell;
use dctopo_obs::Json;

/// One old-vs-new comparison on a fixed benchmark instance.
#[derive(Debug, Clone)]
pub struct SpeedupRecord {
    /// Stable benchmark name (e.g. `fptas_fast`).
    pub name: String,
    /// Human-readable instance description (topology, traffic, knobs —
    /// free text; auxiliary numbers like settle counts go here too).
    pub instance: String,
    /// Old implementation's wall-clock for the instance, milliseconds.
    pub old_ms: f64,
    /// New implementation's wall-clock for the instance, milliseconds.
    pub new_ms: f64,
    /// Peak resident set size of the bench process when the record was
    /// built (`VmHWM` on Linux; see [`peak_rss_bytes`]). `None` when
    /// the platform does not expose it — serialized as `null`.
    pub peak_rss_bytes: Option<u64>,
}

impl SpeedupRecord {
    /// `old_ms / new_ms` (what the acceptance criteria bound).
    pub fn speedup(&self) -> f64 {
        self.old_ms / self.new_ms
    }
}

/// Peak resident set size of the current process in bytes, from the
/// `VmHWM` line of `/proc/self/status`. Returns `None` off Linux or if
/// the field is missing/unparseable, so benches can record it
/// opportunistically without platform gates.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // format: `VmHWM:    123456 kB`
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())?;
    Some(kb * 1024)
}

/// A JSON object from `(key, value)` pairs, in order.
fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON array with one record per line, so committed artifacts diff
/// record by record.
fn rows(records: impl Iterator<Item = Json>) -> String {
    let lines: Vec<String> = records.map(|r| format!("  {r}")).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Render records in the shared schema.
pub fn to_json(records: &[SpeedupRecord]) -> String {
    rows(records.iter().map(|r| {
        object(vec![
            ("name", r.name.as_str().into()),
            ("instance", r.instance.as_str().into()),
            ("old_ms", r.old_ms.into()),
            ("new_ms", r.new_ms.into()),
            ("speedup", r.speedup().into()),
            ("peak_rss_bytes", r.peak_rss_bytes.into()),
        ])
    }))
}

/// Write records to `path` in the shared schema.
pub fn write_json(path: &str, records: &[SpeedupRecord]) -> io::Result<()> {
    std::fs::write(path, to_json(records))
}

/// Write records to the path named by `DCTOPO_BENCH_JSON`, if set.
/// Panics on I/O errors (a bench asked for an artifact it cannot have)
/// and is a silent no-op when the variable is absent.
pub fn emit_from_env(records: &[SpeedupRecord]) {
    if let Ok(path) = std::env::var("DCTOPO_BENCH_JSON") {
        write_json(&path, records).expect("write DCTOPO_BENCH_JSON artifact");
        eprintln!("wrote {} speedup record(s) to {path}", records.len());
    }
}

/// One scenario-sweep grid cell in the shared artifact schema.
///
/// Built from a [`SweepCell`] via `From`; failed cells carry the error
/// text in `status` and `null` metrics.
#[derive(Debug, Clone)]
pub struct SweepCellRecord {
    /// Topology-axis name (family + size, e.g. `rrg-64x12x8`).
    pub topology: String,
    /// Repetition index.
    pub run: usize,
    /// Scenario (degradation recipe) name.
    pub scenario: String,
    /// Traffic-model name.
    pub traffic: String,
    /// Backend name.
    pub backend: String,
    /// Switches in the base topology.
    pub switches: usize,
    /// Live links in the degraded view.
    pub live_links: usize,
    /// Surviving flows the cell solved for.
    pub flows: usize,
    /// `"ok"`, or the cell's error text.
    pub status: String,
    /// The paper's throughput (NIC-capped), if the cell solved.
    pub throughput: Option<f64>,
    /// Network-only λ.
    pub network_lambda: Option<f64>,
    /// Certified dual upper bound on λ.
    pub upper_bound: Option<f64>,
    /// Certified relative gap.
    pub gap: Option<f64>,
    /// Per-cell Theorem-1 hop bound on λ.
    pub hop_bound: Option<f64>,
    /// Dijkstra-equivalent settles spent.
    pub settles: Option<u64>,
}

impl From<&SweepCell> for SweepCellRecord {
    fn from(cell: &SweepCell) -> Self {
        let (status, m) = match &cell.result {
            Ok(m) => ("ok".to_string(), Some(m)),
            Err(e) => (e.to_string(), None),
        };
        SweepCellRecord {
            topology: cell.topology.clone(),
            run: cell.run,
            scenario: cell.scenario.clone(),
            traffic: cell.traffic.clone(),
            backend: cell.backend.clone(),
            switches: cell.switches,
            live_links: cell.live_links,
            flows: cell.flows,
            status,
            throughput: m.map(|m| m.throughput),
            network_lambda: m.map(|m| m.network_lambda),
            upper_bound: m.map(|m| m.upper_bound),
            gap: m.map(|m| m.gap),
            hop_bound: m.map(|m| m.hop_bound),
            settles: m.map(|m| m.settles),
        }
    }
}

/// Render sweep cells in the shared schema. Absent and non-finite
/// metrics are `null` (JSON has no `inf`; an all-local-traffic cell's
/// λ is `∞`).
pub fn cells_to_json(cells: &[SweepCellRecord]) -> String {
    rows(cells.iter().map(|c| {
        object(vec![
            ("topology", c.topology.as_str().into()),
            ("run", c.run.into()),
            ("scenario", c.scenario.as_str().into()),
            ("traffic", c.traffic.as_str().into()),
            ("backend", c.backend.as_str().into()),
            ("switches", c.switches.into()),
            ("live_links", c.live_links.into()),
            ("flows", c.flows.into()),
            ("status", c.status.as_str().into()),
            ("throughput", c.throughput.into()),
            ("network_lambda", c.network_lambda.into()),
            ("upper_bound", c.upper_bound.into()),
            ("gap", c.gap.into()),
            ("hop_bound", c.hop_bound.into()),
            ("settles", c.settles.into()),
        ])
    }))
}

/// Write sweep cells to `path` in the shared schema.
pub fn write_cells_json(path: &str, cells: &[SweepCellRecord]) -> io::Result<()> {
    std::fs::write(path, cells_to_json(cells))
}

/// Write sweep cells to the path named by `DCTOPO_SWEEP_JSON`, if set
/// (same contract as [`emit_from_env`]).
pub fn emit_cells_from_env(cells: &[SweepCellRecord]) {
    if let Ok(path) = std::env::var("DCTOPO_SWEEP_JSON") {
        write_cells_json(&path, cells).expect("write DCTOPO_SWEEP_JSON artifact");
        eprintln!("wrote {} sweep cell record(s) to {path}", cells.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape_and_speedup() {
        let rec = SpeedupRecord {
            name: "fptas_fast".into(),
            instance: "RRG(64, 12, 8) \"sweep\"".into(),
            old_ms: 300.0,
            new_ms: 150.0,
            peak_rss_bytes: Some(2048),
        };
        assert!((rec.speedup() - 2.0).abs() < 1e-12);
        let json = to_json(std::slice::from_ref(&rec));
        assert!(json.starts_with("[\n"));
        let parsed = Json::parse(&json).expect("valid JSON");
        let row = &parsed.as_arr().expect("array")[0];
        assert_eq!(
            row.keys(),
            [
                "name",
                "instance",
                "old_ms",
                "new_ms",
                "speedup",
                "peak_rss_bytes"
            ]
        );
        assert_eq!(row.get("name").and_then(Json::as_str), Some("fptas_fast"));
        assert_eq!(
            row.get("instance").and_then(Json::as_str),
            Some("RRG(64, 12, 8) \"sweep\"")
        );
        assert_eq!(row.get("speedup").and_then(Json::as_f64), Some(2.0));
        assert_eq!(row.get("peak_rss_bytes").and_then(Json::as_u64), Some(2048));
        let absent = SpeedupRecord {
            peak_rss_bytes: None,
            ..rec
        };
        let parsed = Json::parse(&to_json(&[absent])).expect("valid JSON");
        assert_eq!(
            parsed.as_arr().unwrap()[0].get("peak_rss_bytes"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        // on Linux the probe must succeed and report at least 1 MiB for
        // a running test binary; elsewhere it degrades to None
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM present on Linux");
            assert!(rss > 1 << 20, "peak RSS {rss} implausibly small");
        }
    }

    #[test]
    fn sweep_cell_schema_handles_ok_error_and_infinity() {
        use dctopo_core::sweep::CellMetrics;
        use dctopo_flow::FlowError;

        let ok = SweepCell {
            topology: "rrg-8x5x3".into(),
            run: 0,
            scenario: "fail2".into(),
            traffic: "permutation".into(),
            backend: "fptas".into(),
            switches: 8,
            live_links: 10,
            flows: 16,
            result: Ok(CellMetrics {
                throughput: 0.75,
                network_lambda: 0.8,
                upper_bound: 0.82,
                gap: 0.024,
                hop_bound: 0.9,
                nic_limit: 1.0,
                settles: 123,
            }),
        };
        let local = SweepCell {
            result: Ok(CellMetrics {
                throughput: 1.0,
                network_lambda: f64::INFINITY,
                upper_bound: f64::INFINITY,
                gap: 0.0,
                hop_bound: f64::INFINITY,
                nic_limit: 1.0,
                settles: 0,
            }),
            ..ok.clone()
        };
        let failed = SweepCell {
            result: Err(FlowError::Unreachable { src: 1, dst: 5 }),
            ..ok.clone()
        };
        let records: Vec<SweepCellRecord> =
            [&ok, &local, &failed].into_iter().map(Into::into).collect();
        let json = cells_to_json(&records);
        let parsed = Json::parse(&json).expect("valid JSON");
        let [ok, local, failed] = parsed.as_arr().expect("array") else {
            panic!("three rows expected: {json}");
        };
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(ok.get("throughput").and_then(Json::as_f64), Some(0.75));
        assert_eq!(ok.get("settles").and_then(Json::as_u64), Some(123));
        // infinities serialize as null, keeping the artifact valid JSON
        assert_eq!(local.get("network_lambda"), Some(&Json::Null));
        // errors carry their display text and null metrics
        let status = failed.get("status").and_then(Json::as_str).unwrap();
        assert!(status.contains("unreachable"), "{status}");
        assert_eq!(failed.get("throughput"), Some(&Json::Null));
        assert_eq!(failed.get("settles"), Some(&Json::Null));
        assert_eq!(records[2].throughput, None);
    }
}
