//! Schema-versioned run reports.
//!
//! A [`RunReport`] is the machine-readable record of one pipeline run
//! (one `scv verify`, one bench-harness experiment): a name, static
//! parameters, a verdict, and a flat metric map. Reports are emitted as
//! JSONL (`{"type":"run_report","schema":1,...}` — one per line) and read
//! back with [`parse_reports`].

use crate::json::{Json, JsonError};

/// Version of every JSONL record this crate emits. Bump on any
/// backwards-incompatible field change; [`parse_reports`] rejects records
/// of any other version.
pub const SCHEMA_VERSION: u32 = 1;

/// The machine-readable record of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Report name (protocol, experiment id, …).
    pub name: String,
    /// Static parameters (`threads`, `strategy`, protocol sizes, …).
    pub params: Vec<(String, String)>,
    /// Outcome label (`verified`, `violation`, `bounded`, `ok`, …).
    pub verdict: String,
    /// Flat metric map; keys are dotted names (`mc.states_admitted`,
    /// `search.total_ns`, …).
    pub metrics: Vec<(String, f64)>,
}

impl RunReport {
    /// Start a report.
    pub fn new(name: impl Into<String>) -> Self {
        RunReport {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a static parameter.
    pub fn param(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Add a metric.
    pub fn metric(mut self, key: impl Into<String>, value: f64) -> Self {
        self.metrics.push((key.into(), value));
        self
    }

    /// Set the verdict.
    pub fn with_verdict(mut self, verdict: impl Into<String>) -> Self {
        self.verdict = verdict.into();
        self
    }

    /// Look up a metric by name.
    pub fn get_metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// The JSONL object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type".to_string(), Json::Str("run_report".to_string())),
            ("schema".to_string(), Json::Num(SCHEMA_VERSION as f64)),
            ("name".to_string(), Json::Str(self.name.clone())),
            ("verdict".to_string(), Json::Str(self.verdict.clone())),
            (
                "params".to_string(),
                Json::obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                ),
            ),
            (
                "metrics".to_string(),
                Json::obj(self.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
        ])
    }

    /// Parse one report back from its JSON object form.
    pub fn from_json(j: &Json) -> Result<RunReport, String> {
        if j.get("type").and_then(Json::as_str) != Some("run_report") {
            return Err("not a run_report record".to_string());
        }
        let schema = j
            .get("schema")
            .and_then(Json::as_num)
            .ok_or("missing schema field")? as u32;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "schema version {schema} != supported {SCHEMA_VERSION}"
            ));
        }
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let verdict = j
            .get("verdict")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let mut params = Vec::new();
        if let Some(m) = j.get("params").and_then(Json::as_obj) {
            for (k, v) in m {
                params.push((k.clone(), v.as_str().unwrap_or_default().to_string()));
            }
        }
        let mut metrics = Vec::new();
        if let Some(m) = j.get("metrics").and_then(Json::as_obj) {
            for (k, v) in m {
                metrics.push((k.clone(), v.as_num().ok_or("non-numeric metric")?));
            }
        }
        Ok(RunReport {
            name,
            params,
            verdict,
            metrics,
        })
    }
}

/// Parse every `run_report` record out of JSONL text, skipping other
/// event types; any malformed line is an error.
pub fn parse_reports(jsonl: &str) -> Result<Vec<RunReport>, String> {
    let mut out = Vec::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e: JsonError| format!("line {}: {e}", lineno + 1))?;
        if j.get("type").and_then(Json::as_str) == Some("run_report") {
            out.push(RunReport::from_json(&j).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport::new("msi")
            .param("threads", 4)
            .param("strategy", "ws")
            .with_verdict("bounded")
            .metric("mc.states_admitted", 60_000.0)
            .metric("search.total_ns", 1.25e9)
            .metric("mc.states_per_sec", 48_000.0)
    }

    #[test]
    fn report_roundtrips_through_jsonl() {
        let r = sample();
        let line = r.to_json().to_string_compact();
        assert!(line.contains("\"type\":\"run_report\""));
        assert!(line.contains("\"schema\":1"));
        let back = parse_reports(&line).unwrap();
        assert_eq!(back.len(), 1);
        let b = &back[0];
        assert_eq!(b.name, "msi");
        assert_eq!(b.verdict, "bounded");
        assert_eq!(b.get_metric("search.total_ns"), Some(1.25e9));
        assert_eq!(
            b.params
                .iter()
                .find(|(k, _)| k == "threads")
                .map(|(_, v)| v.as_str()),
            Some("4")
        );
    }

    #[test]
    fn parse_skips_non_report_events_but_rejects_bad_schema() {
        let mixed = format!(
            "{}\n{}\n",
            "{\"type\":\"phase\",\"schema\":1,\"phase\":\"search\"}",
            sample().to_json().to_string_compact()
        );
        assert_eq!(parse_reports(&mixed).unwrap().len(), 1);
        let future = "{\"type\":\"run_report\",\"schema\":999,\"name\":\"x\"}";
        assert!(parse_reports(future).is_err());
        assert!(parse_reports("not json").is_err());
    }
}
