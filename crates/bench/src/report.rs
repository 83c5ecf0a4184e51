//! The machine-readable bench report (`BENCH_2.json`) and its schema.
//!
//! A report is a flat list of rows, each one measurement of (engine,
//! grammar, n, threads), plus a host calibration constant so the compare
//! tool can judge wall-clock across machines of different speed: the
//! calibration loop is a fixed, allocation-free integer workload, so
//! `wall_secs / calibration_secs` is a machine-normalized cost.

use crate::json::Json;

pub const SCHEMA: &str = "parsec-bench-v2";

/// One measurement row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Engine identifier (`cdg-serial`, `cdg-pram`, `batch-pram`, ...).
    pub engine: String,
    /// Grammar / corpus identifier.
    pub grammar: String,
    /// Input size: sentence length, or sentences in the batch for batch rows.
    pub n: usize,
    /// Worker threads the row ran with.
    pub threads: usize,
    /// Host wall-clock seconds.
    pub wall_secs: f64,
    /// Abstract operations (serial op counts, batch sentence count, ...).
    pub ops: u64,
    /// Parallel steps, 0 for serial engines.
    pub steps: u64,
    /// Wall-clock speedup of this row over its 1-thread twin (1.0 when
    /// this *is* the 1-thread row or no twin exists).
    pub speedup_vs_1t: f64,
    /// Whether every sentence in the row was accepted.
    pub accepted: bool,
    /// FNV-1a digest of the parse output — equal digests mean
    /// byte-identical results (the determinism check across thread
    /// counts and machines).
    pub digest: u64,
    /// Processors the run occupied (P-RAM width, mesh cells, MasPar
    /// virtual PEs; 1 for serial engines), where the row measures one.
    /// Absent from rows that do not and from older reports.
    pub processors: Option<u64>,
}

impl BenchRow {
    /// Identity key for baseline matching.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}t",
            self.engine, self.grammar, self.n, self.threads
        )
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("engine".into(), Json::Str(self.engine.clone())),
            ("grammar".into(), Json::Str(self.grammar.clone())),
            ("n".into(), Json::Num(self.n as f64)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("wall_secs".into(), Json::Num(self.wall_secs)),
            ("ops".into(), Json::Num(self.ops as f64)),
            ("steps".into(), Json::Num(self.steps as f64)),
            ("speedup_vs_1t".into(), Json::Num(self.speedup_vs_1t)),
            ("accepted".into(), Json::Bool(self.accepted)),
            // Digests exceed 2^53; store as a hex string to stay exact.
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
        ];
        if let Some(p) = self.processors {
            fields.push(("processors".into(), Json::Num(p as f64)));
        }
        Json::Obj(fields)
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("row missing `{k}`"));
        Ok(BenchRow {
            engine: field("engine")?
                .as_str()
                .ok_or("engine not a string")?
                .into(),
            grammar: field("grammar")?
                .as_str()
                .ok_or("grammar not a string")?
                .into(),
            n: field("n")?.as_u64().ok_or("n not an integer")? as usize,
            threads: field("threads")?.as_u64().ok_or("threads not an integer")? as usize,
            wall_secs: field("wall_secs")?
                .as_f64()
                .ok_or("wall_secs not a number")?,
            ops: field("ops")?.as_u64().ok_or("ops not an integer")?,
            steps: field("steps")?.as_u64().ok_or("steps not an integer")?,
            speedup_vs_1t: field("speedup_vs_1t")?
                .as_f64()
                .ok_or("speedup_vs_1t not a number")?,
            accepted: field("accepted")?.as_bool().ok_or("accepted not a bool")?,
            digest: field("digest")?
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("digest not a hex string")?,
            processors: match v.get("processors") {
                None => None,
                Some(p) => Some(p.as_u64().ok_or("processors not an integer")?),
            },
        })
    }
}

/// A full report: schema tag, host facts, calibration, rows, and
/// (optionally) embedded per-scenario phase traces.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub host_threads: usize,
    /// Seconds the fixed calibration workload took on this host.
    pub calibration_secs: f64,
    pub rows: Vec<BenchRow>,
    /// Per-scenario `parsec-trace-v1` documents (scenario name → trace),
    /// validated by [`validate_trace`] before embedding. Absent from older
    /// reports, so `from_json` tolerates a missing section.
    pub traces: Vec<(String, Json)>,
}

impl BenchReport {
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("host_threads".into(), Json::Num(self.host_threads as f64)),
            ("calibration_secs".into(), Json::Num(self.calibration_secs)),
            (
                "rows".into(),
                Json::Arr(self.rows.iter().map(BenchRow::to_json).collect()),
            ),
        ];
        if !self.traces.is_empty() {
            fields.push((
                "traces".into(),
                Json::Arr(
                    self.traces
                        .iter()
                        .map(|(scenario, doc)| {
                            Json::Obj(vec![
                                ("scenario".into(), Json::Str(scenario.clone())),
                                ("trace".into(), doc.clone()),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        match v.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("unknown schema {other:?}, want {SCHEMA:?}")),
        }
        let rows = v
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("report missing `rows`")?
            .iter()
            .map(BenchRow::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        // Older baselines predate the traces section; treat absence as
        // empty rather than an error.
        let traces = match v.get("traces").and_then(Json::as_arr) {
            Some(items) => items
                .iter()
                .map(|item| {
                    let scenario = item
                        .get("scenario")
                        .and_then(Json::as_str)
                        .ok_or("trace entry missing `scenario`")?
                        .to_string();
                    let doc = item.get("trace").ok_or("trace entry missing `trace`")?;
                    validate_trace(doc)?;
                    Ok::<_, String>((scenario, doc.clone()))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(BenchReport {
            host_threads: v
                .get("host_threads")
                .and_then(Json::as_u64)
                .ok_or("report missing `host_threads`")? as usize,
            calibration_secs: v
                .get("calibration_secs")
                .and_then(Json::as_f64)
                .ok_or("report missing `calibration_secs`")?,
            rows,
            traces,
        })
    }

    pub fn parse_str(text: &str) -> Result<Self, String> {
        BenchReport::from_json(&crate::json::parse(text)?)
    }
}

/// Check a parsed JSON document against the `parsec-trace-v1` schema the
/// obsv exporter emits: a schema tag, an engine name, a non-empty `spans`
/// forest whose nodes each carry `name` (string), `start_ns`/`dur_ns`
/// (non-negative integers), and a `children` array of the same shape; an
/// optional `metrics` object with `counters`/`gauges`/`histograms`.
pub fn validate_trace(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(obsv::SCHEMA) => {}
        other => return Err(format!("trace schema {other:?}, want {:?}", obsv::SCHEMA)),
    }
    doc.get("engine")
        .and_then(Json::as_str)
        .ok_or("trace missing `engine`")?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("trace missing `spans`")?;
    if spans.is_empty() {
        return Err("trace has no spans".into());
    }
    fn check_span(span: &Json, path: &str) -> Result<(), String> {
        let name = span
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: span missing `name`"))?;
        for key in ["start_ns", "dur_ns"] {
            span.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}/{name}: `{key}` not a non-negative integer"))?;
        }
        let children = span
            .get("children")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}/{name}: `children` not an array"))?;
        for child in children {
            check_span(child, &format!("{path}/{name}"))?;
        }
        Ok(())
    }
    for span in spans {
        check_span(span, "spans")?;
    }
    if let Some(metrics) = doc.get("metrics") {
        for section in ["counters", "gauges", "histograms"] {
            if metrics.get(section).is_none() {
                return Err(format!("trace metrics missing `{section}`"));
            }
        }
    }
    Ok(())
}

/// FNV-1a over bytes — the output digest. Not cryptographic; collision
/// resistance is irrelevant, cross-machine stability is everything.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Time the fixed calibration workload: a pure integer loop whose cost
/// tracks single-core speed (no allocation, no memory pressure). Best of
/// several runs after a warm-up — the minimum is the noise-robust
/// estimator of the machine's true speed on a contended host.
pub fn calibrate() -> f64 {
    let run = || {
        let start = std::time::Instant::now();
        let mut acc = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..20_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        // Defeat dead-code elimination.
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    };
    run(); // warm-up (page-in, frequency ramp)
    (0..5).map(|_| run()).fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> BenchRow {
        BenchRow {
            engine: "cdg-pram".into(),
            grammar: "english".into(),
            n: 8,
            threads: 4,
            wall_secs: 0.0123,
            ops: 1000,
            steps: 42,
            speedup_vs_1t: 2.5,
            accepted: true,
            digest: 0xdead_beef_0042_1234,
            processors: Some(3),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            host_threads: 8,
            calibration_secs: 0.05,
            rows: vec![sample_row()],
            traces: Vec::new(),
        };
        let text = report.to_pretty();
        let back = BenchReport::parse_str(&text).unwrap();
        assert_eq!(report, back);
        // No traces -> no traces key, so older tooling sees the old shape.
        assert!(!text.contains("\"traces\""));
    }

    #[test]
    fn a_row_without_processors_reads_as_absent() {
        // Reports written before rows carried `processors` (the committed
        // baseline among them) parse unchanged, with the field absent.
        let baseline = BenchReport::parse_str(include_str!("../baseline.json")).unwrap();
        assert!(!baseline.rows.is_empty());
        assert!(baseline.rows.iter().all(|r| r.processors.is_none()));
        let mut row = sample_row();
        row.processors = None;
        let text = row.to_json().to_pretty();
        assert!(!text.contains("processors"));
        assert_eq!(
            BenchRow::from_json(&crate::json::parse(&text).unwrap()),
            Ok(row)
        );
    }

    fn sample_trace() -> Json {
        crate::json::parse(
            r#"{"schema":"parsec-trace-v1","engine":"serial","spans":[
                 {"name":"parse","start_ns":0,"dur_ns":10,"children":[
                   {"name":"filtering","start_ns":1,"dur_ns":5,"children":[]}]}],
                 "metrics":{"counters":{"removals":3},"gauges":{},"histograms":{}}}"#,
        )
        .unwrap()
    }

    #[test]
    fn traces_round_trip_and_validate() {
        let report = BenchReport {
            host_threads: 8,
            calibration_secs: 0.05,
            rows: vec![sample_row()],
            traces: vec![("engine-sweep/serial".into(), sample_trace())],
        };
        let back = BenchReport::parse_str(&report.to_pretty()).unwrap();
        assert_eq!(report, back);
        assert_eq!(back.traces.len(), 1);
    }

    #[test]
    fn trace_validator_rejects_malformed_documents() {
        assert!(validate_trace(&sample_trace()).is_ok());
        let bad_schema = crate::json::parse(r#"{"schema":"v0","engine":"serial","spans":[]}"#);
        assert!(validate_trace(&bad_schema.unwrap()).is_err());
        let no_spans =
            crate::json::parse(r#"{"schema":"parsec-trace-v1","engine":"serial","spans":[]}"#);
        assert!(validate_trace(&no_spans.unwrap()).is_err());
        let bad_span = crate::json::parse(
            r#"{"schema":"parsec-trace-v1","engine":"serial",
                "spans":[{"name":"parse","start_ns":-4,"dur_ns":1,"children":[]}]}"#,
        );
        assert!(validate_trace(&bad_span.unwrap()).is_err());
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"parsec"), fnv1a(b"parsec"));
        assert_ne!(fnv1a(b"parsec"), fnv1a(b"parseC"));
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let err = BenchReport::parse_str(r#"{"schema": "other", "rows": []}"#);
        assert!(err.is_err());
    }
}
