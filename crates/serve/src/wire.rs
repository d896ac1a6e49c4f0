//! Wire format v1: JSON-lines envelopes in, JSON-lines results out.
//!
//! Every request and response is one JSON object per line, hand-rolled
//! over [`mint_exp::json`] (the workspace carries no serde). Requests:
//!
//! ```json
//! {"v":1,"id":7,"op":"submit","spec":"scheme = mint\nworkload = mcf\nrequests = 2000"}
//! {"v":1,"id":7,"op":"cancel"}
//! {"v":1,"op":"shutdown"}
//! ```
//!
//! `submit` optionally carries `"seed_base": S` (the job then runs with
//! `derive_seed(S, id)` — deterministic per-job seed derivation) and
//! `"timeout_ms": T`. Responses:
//!
//! ```json
//! {"v":1,"id":7,"ok":true,"kind":"cell","result":{"scheme":"MINT","duration_ps":…}}
//! {"v":1,"id":8,"ok":true,"kind":"grid","result":{"requests_per_core":…,"schemes":[…],"rows":[…]}}
//! {"v":1,"id":7,"ok":true,"kind":"cancel"}
//! {"v":1,"id":9,"ok":false,"error":"spec: line 2: unknown scheme \"mnit\""}
//! ```
//!
//! Result payloads mirror `run_scenario`'s batch `SCENARIO_report.json`
//! fields (same `{:.6}` / `{:.9}` float formatting), compacted to one
//! line. Responses are emitted **in submission order** regardless of the
//! worker count — the `ci_smoke` serve leg diffs the byte streams at
//! jobs 1 vs 4.

use mint_exp::json::{quote, Json};
use mint_memsys::{NormalizedPerf, RunReport, ScenarioGrid};
use mint_obs::TelemetryReport;

/// Version stamped on (and required of) every envelope.
pub const WIRE_VERSION: u64 = 1;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope {
    /// Run one scenario (cell or grid text) as job `id`.
    Submit {
        /// Caller-chosen job id, echoed on the response line.
        id: u64,
        /// `ScenarioSpec` / `ScenarioGrid` text form.
        spec: String,
        /// When present, the job runs with `derive_seed(seed_base, id)`
        /// instead of the spec's own seed (cells only).
        seed_base: Option<u64>,
        /// When present, the job (cell or grid) is abandoned once it has
        /// run this long, checked before its first decision and every
        /// [`CHUNK`](crate::CHUNK) requests of each cell.
        timeout_ms: Option<u64>,
    },
    /// Request cancellation of job `id` on this connection: queued jobs
    /// are dropped, and a running cell or grid job stops at its next
    /// [`CHUNK`](crate::CHUNK)-request poll.
    /// A cancel is acknowledged either way, but one for an id with no
    /// queued or running job on this connection does nothing.
    Cancel {
        /// The job to cancel.
        id: u64,
    },
    /// Ask for the service's wall-clock statistics (job count,
    /// queue-wait and run-latency histograms) as Prometheus text.
    Stats {
        /// Caller-chosen request id, echoed on the response line.
        id: u64,
    },
    /// Stop intake and drain: queued jobs still run and stream their
    /// results, then the service exits.
    Shutdown,
}

impl Envelope {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Describes the malformed JSON, a wrong/missing `"v"`, an unknown
    /// `"op"`, or a missing/mistyped field.
    pub fn parse_line(line: &str) -> Result<Envelope, String> {
        let v = Json::parse(line)?;
        let version = v
            .get("v")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing numeric \"v\"".to_string())?;
        if version != WIRE_VERSION {
            return Err(format!(
                "unsupported wire version {version} (this service speaks {WIRE_VERSION})"
            ));
        }
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing \"op\"".to_string())?;
        let id = || {
            v.get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{op} needs a numeric \"id\""))
        };
        let opt_u64 = |key: &str| match v.get(key) {
            None => Ok(None),
            Some(field) => field
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("\"{key}\" must be an unsigned integer")),
        };
        match op {
            "submit" => Ok(Envelope::Submit {
                id: id()?,
                spec: v
                    .get("spec")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "submit needs a \"spec\" string".to_string())?
                    .to_string(),
                seed_base: opt_u64("seed_base")?,
                timeout_ms: opt_u64("timeout_ms")?,
            }),
            "cancel" => Ok(Envelope::Cancel { id: id()? }),
            "stats" => Ok(Envelope::Stats { id: id()? }),
            "shutdown" => Ok(Envelope::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Renders the canonical request line (what clients write);
    /// `parse_line(to_line(e)) == e` for any envelope.
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            Envelope::Submit {
                id,
                spec,
                seed_base,
                timeout_ms,
            } => {
                let mut line = format!(
                    "{{\"v\":{WIRE_VERSION},\"id\":{id},\"op\":\"submit\",\"spec\":{}",
                    quote(spec)
                );
                if let Some(base) = seed_base {
                    line.push_str(&format!(",\"seed_base\":{base}"));
                }
                if let Some(ms) = timeout_ms {
                    line.push_str(&format!(",\"timeout_ms\":{ms}"));
                }
                line.push('}');
                line
            }
            Envelope::Cancel { id } => {
                format!("{{\"v\":{WIRE_VERSION},\"id\":{id},\"op\":\"cancel\"}}")
            }
            Envelope::Stats { id } => {
                format!("{{\"v\":{WIRE_VERSION},\"id\":{id},\"op\":\"stats\"}}")
            }
            Envelope::Shutdown => format!("{{\"v\":{WIRE_VERSION},\"op\":\"shutdown\"}}"),
        }
    }
}

/// The success line for a cell job (fields and float formatting match
/// the batch `SCENARIO_report.json`, compacted to one line). Jobs run
/// with `telemetry = on` additionally carry a `"stats"` summary object;
/// lines for plain jobs are byte-identical to wire v1 before it existed.
#[must_use]
pub fn ok_cell_line(id: u64, scheme_label: &str, report: &RunReport) -> String {
    let r = &report.perf.result;
    let stats = report
        .telemetry
        .as_ref()
        .map_or_else(String::new, |t| format!(",\"stats\":{}", stats_object(t)));
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":{id},\"ok\":true,\"kind\":\"cell\",\"result\":\
         {{\"scheme\":{},\"duration_ps\":{},\"requests\":{},\"row_hit_rate\":{:.6},\
         \"mitigative_acts\":{},\"energy_j\":{:.9}{stats}}}}}",
        quote(scheme_label),
        report.perf.duration_ps,
        r.requests,
        r.row_hit_rate(),
        r.mitigative_acts,
        report.energy.total_j(),
    )
}

/// The headline counters of a job's [`TelemetryReport`], compacted to a
/// small JSON object: session totals plus scheduler decisions and
/// tracker mitigations summed across every channel.
fn stats_object(t: &TelemetryReport) -> String {
    let session = |name: &str| t.counter("session", name).unwrap_or(0);
    let summed = |suffix: &str, metric: &str| {
        t.sections
            .iter()
            .filter(|s| s.name.ends_with(suffix))
            .flat_map(|s| &s.counters)
            .filter(|(n, _)| n == metric)
            .map(|(_, v)| v)
            .sum::<u64>()
    };
    format!(
        "{{\"generated\":{},\"admitted\":{},\"serviced\":{},\
         \"sched_decisions\":{},\"mitigations\":{}}}",
        session("generated"),
        session("admitted"),
        session("serviced"),
        summed("/sched", "decisions"),
        summed("/tracker", "mitigations"),
    )
}

/// The success line for a grid job.
#[must_use]
pub fn ok_grid_line(id: u64, grid: &ScenarioGrid, rows: &[Vec<NormalizedPerf>]) -> String {
    let schemes = grid
        .schemes
        .iter()
        .map(|s| quote(&s.label()))
        .collect::<Vec<_>>()
        .join(",");
    let rendered = grid
        .workload_labels
        .iter()
        .zip(rows)
        .map(|(label, row)| {
            format!(
                "{{\"workload\":{},\"normalized\":[{}],\"duration_ps\":[{}]}}",
                quote(label),
                row.iter()
                    .map(|c| format!("{:.6}", c.normalized))
                    .collect::<Vec<_>>()
                    .join(","),
                row.iter()
                    .map(|c| c.duration_ps.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":{id},\"ok\":true,\"kind\":\"grid\",\"result\":\
         {{\"requests_per_core\":{},\"schemes\":[{schemes}],\"rows\":[{rendered}]}}}}",
        grid.requests_per_core,
    )
}

/// The failure line (`id` is `null` when the envelope itself was
/// unparseable).
#[must_use]
pub fn error_line(id: Option<u64>, error: &str) -> String {
    let id = id.map_or_else(|| "null".to_string(), |id| id.to_string());
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":{id},\"ok\":false,\"error\":{}}}",
        quote(error)
    )
}

/// The immediate acknowledgement of a `cancel` request (the cancelled
/// job's own line reports the outcome).
#[must_use]
pub fn cancel_ack_line(id: u64) -> String {
    format!("{{\"v\":{WIRE_VERSION},\"id\":{id},\"ok\":true,\"kind\":\"cancel\"}}")
}

/// The response to a `stats` request: the service's wall-clock ledger
/// rendered as Prometheus exposition text, carried as one JSON string.
#[must_use]
pub fn stats_line(id: u64, prometheus_text: &str) -> String {
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":{id},\"ok\":true,\"kind\":\"stats\",\"result\":\
         {{\"prometheus\":{}}}}}",
        quote(prometheus_text)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_round_trip() {
        let all = [
            Envelope::Submit {
                id: 7,
                spec: "scheme = mint\nworkload = mcf\nrequests = 100".to_string(),
                seed_base: None,
                timeout_ms: None,
            },
            Envelope::Submit {
                id: 8,
                spec: "workload = lbm".to_string(),
                seed_base: Some(0xC0FFEE),
                timeout_ms: Some(5_000),
            },
            Envelope::Cancel { id: 7 },
            Envelope::Stats { id: 9 },
            Envelope::Shutdown,
        ];
        for e in all {
            assert_eq!(Envelope::parse_line(&e.to_line()).unwrap(), e, "{e:?}");
        }
    }

    #[test]
    fn malformed_envelopes_are_described() {
        for (line, needle) in [
            ("not json", "expected"),
            ("{\"id\":1,\"op\":\"submit\"}", "missing numeric \"v\""),
            (
                "{\"v\":2,\"id\":1,\"op\":\"cancel\"}",
                "unsupported wire version 2",
            ),
            ("{\"v\":1,\"id\":1}", "missing \"op\""),
            ("{\"v\":1,\"id\":1,\"op\":\"dance\"}", "unknown op"),
            (
                "{\"v\":1,\"op\":\"submit\",\"spec\":\"x\"}",
                "numeric \"id\"",
            ),
            ("{\"v\":1,\"id\":1,\"op\":\"submit\"}", "\"spec\" string"),
            (
                "{\"v\":1,\"id\":1,\"op\":\"submit\",\"spec\":\"x\",\"timeout_ms\":-1}",
                "unsigned integer",
            ),
        ] {
            let err = Envelope::parse_line(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn response_lines_are_single_line_json() {
        use mint_exp::json::Json;
        let err = error_line(None, "spec: line 2:\nbad \"thing\"");
        assert!(!err.contains('\n'), "escaped newline");
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.get("id"), Some(&Json::Null));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let ack = Json::parse(&cancel_ack_line(3)).unwrap();
        assert_eq!(ack.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(ack.get("kind").and_then(Json::as_str), Some("cancel"));
    }
}
