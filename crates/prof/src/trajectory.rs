//! Append-only, schema-versioned bench trajectories and the baseline
//! regression check behind `qz bench --check`.
//!
//! `results/BENCH_*.json` used to be overwritten in place, so a
//! regression simply replaced the evidence. A [`Trajectory`] instead
//! accumulates one [`TrajectoryRecord`] per bench run (run id, git
//! revision, case results); [`Baseline`] holds committed floors, and
//! [`check`](Baseline::check) compares the *newest* record against
//! them within a tolerance — nonzero exit on regression is the CI
//! gate.
//!
//! The workspace deliberately carries no serde, so this module ships a
//! small recursive-descent [`Json`] reader sized for these files. The
//! legacy single-record `sim_throughput` shape parses too and is
//! converted to run 0 (`git_rev` `"pre-trajectory"`).

use std::path::Path;

/// Schema tag of a trajectory file.
pub const TRAJECTORY_SCHEMA: &str = "qz-bench-trajectory/v1";

/// Schema tag of a baseline file.
pub const BASELINE_SCHEMA: &str = "qz-bench-baseline/v1";

// ---------------------------------------------------------------------
// Minimal JSON reader
// ---------------------------------------------------------------------

/// Deepest array/object nesting [`Json::parse`] accepts. The reader
/// recurses once per level, so the cap keeps hostile input from
/// overflowing the stack; `qz-snap/v1` and the bench files nest fewer
/// than ten levels.
pub const MAX_DEPTH: usize = 256;

/// A parsed JSON value (objects keep key order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (read as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    /// Runs in time linear in `text.len()`; arrays and objects may nest
    /// at most [`MAX_DEPTH`] deep.
    ///
    /// # Errors
    ///
    /// A short message with the byte offset on malformed input,
    /// including nesting past [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(String::from("unexpected end of input")),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash as one slice.
        // Both delimiters are ASCII and the input came from a &str, so
        // the run is whole UTF-8; validating just the run (not the rest
        // of the input) keeps the parse linear.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        let text = std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|e| e.to_string())?;
        out.push_str(text);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                // Exactly four hex digits: `from_str_radix` alone would
                // also take a sign (`\u+041`).
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                    .ok_or_else(|| format!("bad \\u escape at byte {}", *pos - 1))?;
                let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                *pos += 4;
            }
            _ => return Err(format!("bad escape at byte {}", *pos)),
        }
        *pos += 1;
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------
// Trajectory
// ---------------------------------------------------------------------

/// One case's results inside a record: a name plus named numeric
/// values (always including the gated metric, e.g. `speedup`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Case name (e.g. the environment: `Quiet`, `Crowded`).
    pub name: String,
    /// `(metric, value)` pairs in stable order.
    pub values: Vec<(String, f64)>,
}

impl BenchCase {
    /// Reads one metric by name.
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(k, _)| k == metric)
            .map(|(_, v)| *v)
    }
}

/// One bench run appended to the trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryRecord {
    /// Monotonic run id (0 is the migrated pre-trajectory record).
    pub run: u64,
    /// `git rev-parse --short HEAD` at bench time, or `"unknown"`.
    pub git_rev: String,
    /// Per-case results.
    pub cases: Vec<BenchCase>,
}

impl TrajectoryRecord {
    /// The named case, if present.
    pub fn case(&self, name: &str) -> Option<&BenchCase> {
        self.cases.iter().find(|c| c.name == name)
    }
}

/// An append-only bench result log.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Which bench produced it (e.g. `sim_throughput`).
    pub bench: String,
    /// All records, oldest first.
    pub records: Vec<TrajectoryRecord>,
}

/// Formats an f64 compactly and round-trippably for these files.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return String::from("null");
    }
    #[allow(clippy::float_cmp)] // exact truncation test, not a tolerance check
    let is_integral = v == v.trunc();
    if is_integral && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

impl Trajectory {
    /// An empty trajectory for `bench`.
    pub fn new(bench: &str) -> Trajectory {
        Trajectory {
            bench: bench.to_owned(),
            records: Vec::new(),
        }
    }

    /// The most recent record.
    pub fn newest(&self) -> Option<&TrajectoryRecord> {
        self.records.last()
    }

    /// Parses a trajectory file. Accepts the v1 schema and the legacy
    /// single-record `{"bench":...,"cases":[{"env":...}]}` shape,
    /// which converts to a single run-0 record.
    ///
    /// # Errors
    ///
    /// A message describing the malformed construct.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(TRAJECTORY_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported trajectory schema '{other}'")),
            // Legacy overwrite-in-place shape: no schema tag.
            None => return Self::parse_legacy(&doc),
        }
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("trajectory missing 'bench'")?
            .to_owned();
        let mut records = Vec::new();
        for rec in doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("trajectory missing 'records'")?
        {
            let run = rec
                .get("run")
                .and_then(Json::as_f64)
                .ok_or("record missing 'run'")?;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let run = run.max(0.0) as u64;
            let git_rev = rec
                .get("git_rev")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_owned();
            records.push(TrajectoryRecord {
                run,
                git_rev,
                cases: parse_cases(rec.get("cases"), "case")?,
            });
        }
        Ok(Trajectory { bench, records })
    }

    fn parse_legacy(doc: &Json) -> Result<Trajectory, String> {
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("legacy record missing 'bench'")?
            .to_owned();
        let cases = parse_cases(doc.get("cases"), "env")?;
        Ok(Trajectory {
            bench,
            records: vec![TrajectoryRecord {
                run: 0,
                git_rev: String::from("pre-trajectory"),
                cases,
            }],
        })
    }

    /// Renders the full file, schema tag first, stable field order.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{TRAJECTORY_SCHEMA}\",\"bench\":\"{}\",\"records\":[",
            self.bench
        );
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"run\":{},\"git_rev\":\"{}\",\"cases\":[",
                rec.run, rec.git_rev
            ));
            for (j, case) in rec.cases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"case\":\"{}\"", case.name));
                for (k, v) in &case.values {
                    out.push_str(&format!(",\"{k}\":{}", fmt_f64(*v)));
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Loads a trajectory from disk; `Ok(None)` when the file does not
    /// exist.
    ///
    /// # Errors
    ///
    /// I/O errors other than not-found, and parse errors.
    pub fn load(path: &Path) -> Result<Option<Trajectory>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Trajectory::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Appends one run to the trajectory at `path` (creating or
    /// migrating the file as needed) and writes it back. Returns the
    /// new record's run id.
    ///
    /// # Errors
    ///
    /// Propagates load/parse errors and the final write error.
    pub fn append_run(
        path: &Path,
        bench: &str,
        git_rev: &str,
        cases: Vec<BenchCase>,
    ) -> Result<u64, String> {
        let mut trajectory = Trajectory::load(path)?.unwrap_or_else(|| Trajectory::new(bench));
        let run = trajectory
            .records
            .iter()
            .map(|r| r.run)
            .max()
            .map_or(0, |m| m + 1);
        trajectory.records.push(TrajectoryRecord {
            run,
            git_rev: git_rev.to_owned(),
            cases,
        });
        std::fs::write(path, trajectory.to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(run)
    }
}

fn parse_cases(cases: Option<&Json>, name_key: &str) -> Result<Vec<BenchCase>, String> {
    let mut out = Vec::new();
    for case in cases.and_then(Json::as_arr).ok_or("missing 'cases'")? {
        let fields = case.as_obj().ok_or("case is not an object")?;
        let name = case
            .get(name_key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("case missing '{name_key}'"))?
            .to_owned();
        let values = fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect();
        out.push(BenchCase { name, values });
    }
    Ok(out)
}

/// `git rev-parse --short HEAD` in `dir`, `"unknown"` when git or the
/// repository is unavailable — bench trajectories must not fail on a
/// bare tarball.
pub fn git_rev(dir: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

// ---------------------------------------------------------------------
// Baseline check
// ---------------------------------------------------------------------

/// One committed floor: `metric` of `case` in `bench`'s newest record
/// must stay ≥ `min × (1 − tolerance)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCheck {
    /// Trajectory bench name (`sim_throughput`, `fleet_throughput`).
    pub bench: String,
    /// Case name inside the record.
    pub case: String,
    /// Metric inside the case (usually `speedup`).
    pub metric: String,
    /// The committed floor.
    pub min: f64,
}

/// The committed baseline: a tolerance plus per-case floors.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Fractional slack applied to every floor (e.g. 0.1 = 10%).
    pub tolerance: f64,
    /// The floors.
    pub checks: Vec<BaselineCheck>,
}

/// The outcome of a baseline check, ready to print.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// One human-readable line per check.
    pub lines: Vec<String>,
    /// How many checks failed (0 = gate passes).
    pub failures: usize,
}

impl Baseline {
    /// Parses a baseline file.
    ///
    /// # Errors
    ///
    /// A message describing the malformed construct.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(BASELINE_SCHEMA) => {}
            other => return Err(format!("unsupported baseline schema {other:?}")),
        }
        let tolerance = doc
            .get("tolerance")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            .clamp(0.0, 0.99);
        let mut checks = Vec::new();
        for check in doc
            .get("checks")
            .and_then(Json::as_arr)
            .ok_or("baseline missing 'checks'")?
        {
            let field = |key: &str| -> Result<String, String> {
                check
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("baseline check missing '{key}'"))
            };
            checks.push(BaselineCheck {
                bench: field("bench")?,
                case: field("case")?,
                metric: field("metric")?,
                min: check
                    .get("min")
                    .and_then(Json::as_f64)
                    .ok_or("baseline check missing 'min'")?,
            });
        }
        Ok(Baseline { tolerance, checks })
    }

    /// Loads a baseline file.
    ///
    /// # Errors
    ///
    /// I/O and parse errors, with the path prefixed.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Evaluates every floor against the newest record of the matching
    /// trajectory. `lookup` maps a bench name to its loaded trajectory
    /// (`None` when the file is absent — that is a failure: a missing
    /// trajectory must not silently pass the gate).
    pub fn check<F>(&self, lookup: F) -> CheckOutcome
    where
        F: Fn(&str) -> Option<Trajectory>,
    {
        let mut lines = Vec::new();
        let mut failures = 0;
        for c in &self.checks {
            let floor = c.min * (1.0 - self.tolerance);
            let value = lookup(&c.bench)
                .as_ref()
                .and_then(Trajectory::newest)
                .and_then(|r| r.case(&c.case))
                .and_then(|case| case.value(&c.metric));
            match value {
                Some(v) if v >= floor => lines.push(format!(
                    "PASS {}/{} {} = {:.3} (floor {:.3}, baseline {:.3})",
                    c.bench, c.case, c.metric, v, floor, c.min
                )),
                Some(v) => {
                    failures += 1;
                    lines.push(format!(
                        "FAIL {}/{} {} = {:.3} below floor {:.3} (baseline {:.3})",
                        c.bench, c.case, c.metric, v, floor, c.min
                    ));
                }
                None => {
                    failures += 1;
                    lines.push(format!(
                        "FAIL {}/{} {}: no trajectory record to check",
                        c.bench, c.case, c.metric
                    ));
                }
            }
        }
        CheckOutcome { lines, failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEGACY: &str = r#"{"bench":"sim_throughput","system":"QZ","cases":[
      {"env":"Quiet","events":120,"sim_ticks":2555399941,"speedup":18.265},
      {"env":"Crowded","events":120,"sim_ticks":4767600,"speedup":2.977}]}"#;

    #[test]
    fn json_reader_handles_the_usual_shapes() {
        let doc =
            Json::parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": "x\ny A"}, "d": true, "e": null}"#)
                .unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(1000.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny A")
        );
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("e"), Some(&Json::Null));
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2] trailing").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.starts_with("nesting deeper than 256 at byte"), "{err}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert_eq!(
            Json::parse(&past_cap).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\u20AC""#).unwrap().as_str(),
            Some("Aé€")
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u004""#,
            r#""\u004G""#,
            r#""\u"#,
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.starts_with("bad \\u escape at byte 1"), "{bad}: {err}");
        }
    }

    #[test]
    fn a_four_mib_string_parses() {
        // The old reader re-validated the rest of the input at every
        // character, which would take minutes here.
        let piece = "0123456789abcdé€😀\\\"\\n";
        let text = format!("\"{}\"", piece.repeat((4 << 20) / piece.len()));
        let decoded = "0123456789abcdé€😀\"\n".repeat((4 << 20) / piece.len());
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(decoded.as_str()));
    }

    #[test]
    fn a_snapshot_with_twenty_thousand_telemetry_samples_parses() {
        // The `qz-snap/v1` shape: u64s and f64 bit patterns travel as
        // decimal strings, so nearly every byte sits inside a string.
        const SAMPLES: u64 = 20_000;
        let mut doc = String::from("{\"schema\":\"qz-snap/v1\",\"now\":\"1000\",\"telemetry\":[");
        for i in 0..SAMPLES {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                "{{\"t\":\"{}\",\"irradiance\":\"{}\",\"stored\":\"{}\",\"on\":true,\
                 \"occupancy\":3,\"lambda\":\"{}\",\"correction\":\"{}\",\
                 \"active_option\":null,\"ibo_discards\":\"{i}\"}}",
                i * 1000,
                (0.5f64 + i as f64).to_bits(),
                1.25f64.to_bits(),
                0.1f64.to_bits(),
                (-0.25f64).to_bits(),
            ));
        }
        doc.push_str("],\"done\":false}");
        assert!(doc.len() > 3 << 20, "{} bytes", doc.len());

        let parsed = Json::parse(&doc).unwrap();
        let samples = parsed.get("telemetry").unwrap().as_arr().unwrap();
        assert_eq!(samples.len(), 20_000);
        let last = &samples[19_999];
        assert_eq!(last.get("t").unwrap().as_str(), Some("19999000"));
        let irradiance = 19_999.5f64.to_bits().to_string();
        assert_eq!(
            last.get("irradiance").unwrap().as_str(),
            Some(irradiance.as_str())
        );
        assert_eq!(last.get("active_option"), Some(&Json::Null));
        assert_eq!(parsed.get("done"), Some(&Json::Bool(false)));
    }

    #[test]
    fn escaped_strings_round_trip_with_specials_at_every_position() {
        // Every string of up to four symbols over multi-byte scalars and
        // the characters that need escaping, so each special sits at
        // every position and next to every other symbol.
        const SYMBOLS: [char; 8] = ['a', 'é', '€', '😀', '"', '\\', '\n', '\u{1}'];
        let mut strings = vec![String::new()];
        let mut frontier = vec![String::new()];
        for _ in 0..4 {
            frontier = frontier
                .iter()
                .flat_map(|s| {
                    SYMBOLS.iter().map(move |c| {
                        let mut t = s.clone();
                        t.push(*c);
                        t
                    })
                })
                .collect();
            strings.extend(frontier.iter().cloned());
        }
        assert_eq!(strings.len(), 1 + 8 + 64 + 512 + 4096);
        for s in &strings {
            let mut doc = String::from("{\"");
            qz_types::json::escape_into(&mut doc, s);
            doc.push_str("\":\"");
            qz_types::json::escape_into(&mut doc, s);
            doc.push_str("\"}");
            let parsed = Json::parse(&doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
            let (key, value) = &parsed.as_obj().unwrap()[0];
            assert_eq!(key, s, "key of {doc:?}");
            assert_eq!(value.as_str(), Some(s.as_str()), "value of {doc:?}");
        }
    }

    #[test]
    fn legacy_single_record_migrates_to_run_zero() {
        let t = Trajectory::parse(LEGACY).unwrap();
        assert_eq!(t.bench, "sim_throughput");
        assert_eq!(t.records.len(), 1);
        let rec = t.newest().unwrap();
        assert_eq!(rec.run, 0);
        assert_eq!(rec.git_rev, "pre-trajectory");
        assert_eq!(rec.case("Quiet").unwrap().value("speedup"), Some(18.265));
        assert_eq!(rec.case("Crowded").unwrap().value("speedup"), Some(2.977));
    }

    #[test]
    fn trajectory_round_trips_and_appends() {
        let dir = std::env::temp_dir().join("qz_prof_trajectory_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);

        // Seed the file with the legacy shape, then append: migration
        // keeps the old record as run 0 and the new one becomes run 1.
        std::fs::write(&path, LEGACY).unwrap();
        let cases = vec![BenchCase {
            name: String::from("Quiet"),
            values: vec![(String::from("speedup"), 19.5)],
        }];
        let run = Trajectory::append_run(&path, "sim_throughput", "abc1234", cases).unwrap();
        assert_eq!(run, 1);

        let t = Trajectory::load(&path).unwrap().unwrap();
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.newest().unwrap().git_rev, "abc1234");
        assert_eq!(
            t.newest().unwrap().case("Quiet").unwrap().value("speedup"),
            Some(19.5)
        );

        // Round trip: write → load → identical structure.
        let reparsed = Trajectory::parse(&t.to_json()).unwrap();
        assert_eq!(reparsed, t);

        // Appending again increments the run id.
        let run = Trajectory::append_run(
            &path,
            "sim_throughput",
            "def5678",
            vec![BenchCase {
                name: String::from("Quiet"),
                values: vec![(String::from("speedup"), 20.0)],
            }],
        )
        .unwrap();
        assert_eq!(run, 2);
    }

    fn baseline() -> Baseline {
        Baseline::parse(
            r#"{"schema":"qz-bench-baseline/v1","tolerance":0.1,"checks":[
              {"bench":"sim_throughput","case":"Quiet","metric":"speedup","min":3.0},
              {"bench":"sim_throughput","case":"Crowded","metric":"speedup","min":1.5}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn baseline_check_passes_above_floor_and_fails_below() {
        let t = Trajectory::parse(LEGACY).unwrap();
        let outcome = baseline().check(|name| (name == "sim_throughput").then(|| t.clone()));
        assert_eq!(outcome.failures, 0, "{:?}", outcome.lines);
        assert!(outcome.lines.iter().all(|l| l.starts_with("PASS")));

        // A regressed Crowded speedup fails the gate.
        let mut slow = t.clone();
        slow.records.push(TrajectoryRecord {
            run: 1,
            git_rev: String::from("bad"),
            cases: vec![
                BenchCase {
                    name: String::from("Quiet"),
                    values: vec![(String::from("speedup"), 10.0)],
                },
                BenchCase {
                    name: String::from("Crowded"),
                    values: vec![(String::from("speedup"), 1.2)],
                },
            ],
        });
        let outcome = baseline().check(|name| (name == "sim_throughput").then(|| slow.clone()));
        assert_eq!(outcome.failures, 1);
        assert!(outcome
            .lines
            .iter()
            .any(|l| l.contains("FAIL") && l.contains("Crowded")));

        // Tolerance: 1.4 ≥ 1.5 × 0.9 = 1.35 still passes.
        slow.records.last_mut().unwrap().cases[1].values[0].1 = 1.4;
        let outcome = baseline().check(|name| (name == "sim_throughput").then(|| slow.clone()));
        assert_eq!(outcome.failures, 0, "{:?}", outcome.lines);
    }

    #[test]
    fn missing_trajectory_is_a_failure_not_a_pass() {
        let outcome = baseline().check(|_| None);
        assert_eq!(outcome.failures, 2);
        assert!(outcome.lines[0].contains("no trajectory record"));
    }

    #[test]
    fn unknown_schemas_are_rejected() {
        assert!(Trajectory::parse(
            r#"{"schema":"qz-bench-trajectory/v9","bench":"x","records":[]}"#
        )
        .is_err());
        assert!(Baseline::parse(r#"{"schema":"nope","checks":[]}"#).is_err());
    }

    #[test]
    fn git_rev_reports_unknown_outside_a_repo() {
        let dir = std::env::temp_dir().join("qz_prof_no_repo_here");
        std::fs::create_dir_all(&dir).unwrap();
        // Either a real rev (if a parent repo swallows it) or unknown —
        // but never empty and never a panic.
        let rev = git_rev(&dir);
        assert!(!rev.is_empty());
    }
}
