//! Chrome `trace_event` export and a validating re-parser.
//!
//! [`Trace::to_chrome_json`] emits the JSON Object Format
//! (`{"traceEvents": [...]}`) understood by chrome://tracing and Perfetto:
//! one *process* per track (machine; the router uses [`ROUTER_TRACK`]),
//! one *thread* per row (node; machine-level events use [`SCHED_ROW`]),
//! `"X"` complete events for spans and `"i"` instants for zero-duration
//! records, timestamps in microseconds of virtual time. Events are sorted
//! by `(start, seq)` so per-track timestamps are monotone.
//!
//! [`validate_chrome_json`] is a minimal re-parser for exactly this
//! exporter's output (used by `examples/trace.rs` and CI to prove the
//! export is well-formed without pulling a JSON dependency): it checks
//! brace/string structure, extracts `ph`/`pid`/`tid`/`ts` per event, and
//! verifies per-track timestamp monotonicity.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{Trace, ROUTER_TRACK, SCHED_ROW};

/// Appends `s` to `out` escaped for embedding in a JSON string literal:
/// quotes, backslashes and control characters are escaped, everything
/// else is copied as is.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Virtual femtoseconds → trace microseconds.
fn fs_to_us(fs: u64) -> f64 {
    fs as f64 / 1e9
}

fn row_name(row: u32) -> String {
    if row == SCHED_ROW {
        "scheduler".to_string()
    } else {
        format!("node {row}")
    }
}

impl Trace {
    /// Exports the retained records as Chrome `trace_event` JSON.
    ///
    /// `tracks` names the process tracks: `(track id, display name)` — pass
    /// one entry per machine (and one for [`ROUTER_TRACK`] if fleet events
    /// were recorded). Tracks that appear in records but not in `tracks`
    /// still export, just without a `process_name` row.
    pub fn to_chrome_json(&self, tracks: &[(u32, String)]) -> String {
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.sort_by_key(|&i| (self.records[i].start.as_fs(), self.records[i].seq));

        // One thread_name metadata row per (track, row) pair that occurs.
        let mut rows: BTreeMap<(u32, u32), ()> = BTreeMap::new();
        for r in &self.records {
            rows.insert((r.track, r.row), ());
        }

        let mut out = String::with_capacity(self.records.len() * 96 + 1024);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let emit = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
        };

        for &(track, ref name) in tracks {
            emit(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{track},\"tid\":0,\"args\":{{\"name\":\""
            );
            escape_json(name, &mut out);
            out.push_str("\"}}");
            emit(&mut out, &mut first);
            let sort = if track == ROUTER_TRACK {
                -1
            } else {
                track as i64
            };
            let _ = write!(
                out,
                "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{track},\"tid\":0,\"args\":{{\"sort_index\":{sort}}}}}"
            );
        }
        for &(track, row) in rows.keys() {
            emit(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{track},\"tid\":{row},\"args\":{{\"name\":\"{}\"}}}}",
                row_name(row)
            );
            emit(&mut out, &mut first);
            let sort = if row == SCHED_ROW { -1 } else { row as i64 };
            let _ = write!(
                out,
                "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{track},\"tid\":{row},\"args\":{{\"sort_index\":{sort}}}}}"
            );
        }

        for &i in &order {
            let r = &self.records[i];
            emit(&mut out, &mut first);
            out.push_str("{\"name\":\"");
            escape_json(r.name, &mut out);
            let _ = write!(out, "\",\"ph\":\"");
            if r.is_instant() {
                let _ = write!(out, "i\",\"s\":\"t\",\"ts\":{}", fs_to_us(r.start.as_fs()));
            } else {
                let _ = write!(
                    out,
                    "X\",\"ts\":{},\"dur\":{}",
                    fs_to_us(r.start.as_fs()),
                    fs_to_us(r.dur.as_fs())
                );
            }
            let _ = write!(
                out,
                ",\"pid\":{},\"tid\":{},\"args\":{{\"job\":{},\"tenant\":{},\"seq\":{}}}}}",
                r.track, r.row, r.job, r.tenant, r.seq
            );
        }

        let _ = write!(
            out,
            "\n],\"otherData\":{{\"fingerprint\":\"{}\",\"recorded\":{},\"dropped\":{}}}}}",
            self.fingerprint_hex(),
            self.recorded,
            self.dropped
        );
        out
    }
}

/// What [`validate_chrome_json`] found in an exported trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Span (`"X"`) events.
    pub spans: usize,
    /// Instant (`"i"`) events.
    pub instants: usize,
    /// Metadata (`"M"`) events.
    pub metadata: usize,
    /// Distinct `pid` values among span/instant events.
    pub tracks: usize,
}

impl ChromeSummary {
    /// Span + instant events (everything except metadata).
    pub fn events(&self) -> usize {
        self.spans + self.instants
    }
}

/// Splits the body of a JSON array into top-level object slices,
/// respecting nested braces and string literals.
fn split_objects(body: &str) -> Result<Vec<&str>, String> {
    let mut objects = Vec::new();
    let bytes = body.as_bytes();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| "unbalanced '}' in traceEvents".to_string())?;
                if depth == 0 {
                    objects.push(&body[start..=i]);
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err("unterminated object or string in traceEvents".to_string());
    }
    Ok(objects)
}

/// Extracts the raw text after `"key":` in a flat-ish JSON object.
fn raw_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let at = obj.find(&tag)? + tag.len();
    let rest = &obj[at..];
    let end = rest
        .find([',', '}'])
        .expect("object slice always ends with '}'");
    Some(rest[..end].trim())
}

fn num_field(obj: &str, key: &str) -> Result<f64, String> {
    raw_field(obj, key)
        .ok_or_else(|| format!("event missing \"{key}\": {obj}"))?
        .parse::<f64>()
        .map_err(|e| format!("bad \"{key}\" in {obj}: {e}"))
}

fn str_field(obj: &str, key: &str) -> Result<String, String> {
    let raw = raw_field(obj, key).ok_or_else(|| format!("event missing \"{key}\": {obj}"))?;
    let inner = raw
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("\"{key}\" is not a string in {obj}"))?;
    Ok(inner.to_string())
}

/// Parses a trace produced by [`Trace::to_chrome_json`] back, verifying
/// structure and per-`(pid, tid)` timestamp monotonicity. Returns event
/// counts on success. This is a validator for our own exporter's output,
/// not a general JSON parser.
pub fn validate_chrome_json(json: &str) -> Result<ChromeSummary, String> {
    let trimmed = json.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err("trace is not a JSON object".to_string());
    }
    let start = trimmed
        .find("\"traceEvents\":[")
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?
        + "\"traceEvents\":[".len();
    let end = trimmed
        .rfind(']')
        .ok_or_else(|| "missing closing ']' for traceEvents".to_string())?;
    if end < start {
        return Err("malformed traceEvents array".to_string());
    }
    let mut summary = ChromeSummary {
        spans: 0,
        instants: 0,
        metadata: 0,
        tracks: 0,
    };
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut tracks: BTreeMap<u64, ()> = BTreeMap::new();
    for obj in split_objects(&trimmed[start..end])? {
        // `args` is a nested object; every field the validator reads sits
        // before it in the exporter's field order.
        let head = &obj[..obj.find("\"args\"").unwrap_or(obj.len())];
        let ph = str_field(head, "ph")?;
        match ph.as_str() {
            "M" => summary.metadata += 1,
            "X" | "i" => {
                let pid = num_field(head, "pid")? as u64;
                let tid = num_field(head, "tid")? as u64;
                let ts = num_field(head, "ts")?;
                if ph == "X" {
                    let dur = num_field(head, "dur")?;
                    if dur < 0.0 {
                        return Err(format!("negative dur in {obj}"));
                    }
                    summary.spans += 1;
                } else {
                    summary.instants += 1;
                }
                tracks.insert(pid, ());
                let prev = last_ts.entry((pid, tid)).or_insert(ts);
                if ts < *prev {
                    return Err(format!(
                        "timestamps not monotone on track {pid} row {tid}: {ts} after {prev}"
                    ));
                }
                *prev = ts;
            }
            other => return Err(format!("unknown ph {other:?} in {obj}")),
        }
    }
    summary.tracks = tracks.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;
    use maco_sim::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn sample_trace() -> Trace {
        let sink = TraceSink::on();
        sink.instant("job/admit", 0, SCHED_ROW, t(100), 0, 0);
        sink.span("layer", 0, 2, t(120), t(180), 0, 0);
        sink.instant("route", ROUTER_TRACK, 0, t(90), 0, 1);
        sink.span("lease", 1, 0, t(150), t(400), 3, 1);
        sink.drain().unwrap()
    }

    #[test]
    fn export_parses_back_with_matching_counts() {
        let trace = sample_trace();
        let json = trace.to_chrome_json(&[
            (0, "m0".to_string()),
            (1, "m1".to_string()),
            (ROUTER_TRACK, "router".to_string()),
        ]);
        let summary = validate_chrome_json(&json).expect("valid");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 2);
        assert_eq!(summary.events(), trace.len());
        // 2 metadata per named track + 2 per distinct (track,row) pair.
        assert_eq!(summary.metadata, 3 * 2 + 4 * 2);
        assert_eq!(summary.tracks, 3);
    }

    #[test]
    fn events_are_sorted_by_start_then_seq() {
        let trace = sample_trace();
        let json = trace.to_chrome_json(&[]);
        // The route instant (recorded third, earliest start) must export
        // before every other span/instant.
        let first_span = json.find("\"ph\":\"X\"").unwrap();
        let first_instant = json.find("\"ph\":\"i\"").unwrap();
        let route = json.find("\"name\":\"route\"").unwrap();
        assert!(route < first_span);
        assert_eq!(
            json[route..].find("\"ph\":\"i\"").unwrap() + route,
            first_instant
        );
        assert!(route < json.find("\"name\":\"job/admit\"").unwrap());
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_json("not json").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[{\"ph\":\"Q\"}]}").is_err());
        let non_monotone = "{\"traceEvents\":[\n{\"name\":\"a\",\"ph\":\"i\",\"s\":\"t\",\"ts\":5,\"pid\":0,\"tid\":0,\"args\":{}},\n{\"name\":\"b\",\"ph\":\"i\",\"s\":\"t\",\"ts\":4,\"pid\":0,\"tid\":0,\"args\":{}}\n]}";
        assert!(validate_chrome_json(non_monotone)
            .unwrap_err()
            .contains("monotone"));
    }
}
