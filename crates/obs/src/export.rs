//! Hand-rolled JSONL and CSV exporters for event logs (`std` only).
//!
//! The workspace is dependency-free by design, so serialization is
//! written out by hand: JSONL gives one self-describing object per
//! event (nested candidate/option arrays included); CSV flattens to a
//! fixed column set shared by all event kinds, leaving unused columns
//! empty — convenient for spreadsheet and pandas post-processing.

use std::fmt::{self, Write as _};
use std::io::{self, Write};

use crate::event::{Event, EventKind};

/// Number of event lines the emission arena accumulates before the
/// formatted bytes flush to the writer in one `write_all`. Matches the
/// engine's busy-block granularity; the bytes on the wire are exactly
/// the per-event bytes, just batched.
const EMIT_BLOCK_EVENTS: usize = 64;

/// An `f64` as a JSON number, `null` when not finite.
struct JsonF64(f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// An optional index as a JSON number or `null`.
struct JsonOpt(Option<usize>);

impl fmt::Display for JsonOpt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(x) => fmt::Display::fmt(&x, f),
            None => f.write_str("null"),
        }
    }
}

/// Serializes one event as a single-line JSON object.
pub fn event_to_json(event: &Event) -> String {
    let mut s = String::new();
    event_to_json_into(&mut s, event);
    s
}

/// Appends one event's single-line JSON object (no trailing newline)
/// to `s`. This is the arena form behind [`event_to_json`] and
/// [`write_jsonl`]: batched callers reuse one buffer across a block of
/// events instead of allocating a string per event.
pub fn event_to_json_into(s: &mut String, event: &Event) {
    let _ = write!(
        s,
        "{{\"t_ms\":{},\"kind\":\"{}\"",
        event.t_ms,
        event.kind.name()
    );
    match &event.kind {
        EventKind::SchedulerPick {
            job,
            expected_service_s,
            correction_s,
            p_in_w,
            candidates,
        } => {
            let _ = write!(
                s,
                ",\"job\":{job},\"expected_service_s\":{},\"correction_s\":{},\"p_in_w\":{}",
                JsonF64(*expected_service_s),
                JsonF64(*correction_s),
                JsonF64(*p_in_w)
            );
            s.push_str(",\"candidates\":[");
            for (i, c) in candidates.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                s,
                    "{{\"job\":{},\"expected_service_s\":{},\"oldest_input_age_s\":{},\"selected\":{}}}",
                    c.job,
                    JsonF64(c.expected_service_s),
                    JsonF64(c.oldest_input_age_s),
                    c.selected
                );
            }
            s.push(']');
        }
        EventKind::IboDecision {
            job,
            lambda,
            occupancy,
            capacity,
            expected_service_s,
            predicted_arrivals,
            ibo_predicted,
            unavoidable,
            chosen_option,
            options,
        } => {
            let _ = write!(
                s,
                ",\"job\":{job},\"lambda\":{},\"occupancy\":{occupancy},\"capacity\":{capacity},\
                 \"expected_service_s\":{},\"predicted_arrivals\":{},\"ibo_predicted\":{ibo_predicted},\
                 \"unavoidable\":{unavoidable},\"chosen_option\":{chosen_option}",
                JsonF64(*lambda),
                JsonF64(*expected_service_s),
                JsonF64(*predicted_arrivals)
            );
            s.push_str(",\"options\":[");
            for (i, o) in options.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"option\":{},\"expected_service_s\":{},\"predicts_overflow\":{}}}",
                    o.option,
                    JsonF64(o.expected_service_s),
                    o.predicts_overflow
                );
            }
            s.push(']');
        }
        EventKind::PidUpdate {
            job,
            predicted_s,
            observed_s,
            error_s,
            correction_s,
        } => {
            let _ = write!(
                s,
                ",\"job\":{job},\"predicted_s\":{},\"observed_s\":{},\"error_s\":{},\"correction_s\":{}",
                JsonF64(*predicted_s),
                JsonF64(*observed_s),
                JsonF64(*error_s),
                JsonF64(*correction_s)
            );
        }
        EventKind::JobComplete { job, observed_s } => {
            let _ = write!(s, ",\"job\":{job},\"observed_s\":{}", JsonF64(*observed_s));
        }
        EventKind::JobStart {
            job,
            option,
            occupancy,
        } => {
            let _ = write!(
                s,
                ",\"job\":{job},\"option\":{option},\"occupancy\":{occupancy}"
            );
        }
        EventKind::BufferAdmit {
            job,
            occupancy,
            interesting,
        } => {
            let _ = write!(
                s,
                ",\"job\":{job},\"occupancy\":{occupancy},\"interesting\":{interesting}"
            );
        }
        EventKind::IboDiscard {
            occupancy,
            interesting,
            device_on,
            active_option,
        } => {
            let _ = write!(
                s,
                ",\"occupancy\":{occupancy},\"interesting\":{interesting},\"device_on\":{device_on},\
                 \"active_option\":{}",
                JsonOpt(*active_option)
            );
        }
        EventKind::PowerFailure { checkpointed } => {
            let _ = write!(s, ",\"checkpointed\":{checkpointed}");
        }
        EventKind::Checkpoint => {}
        EventKind::Restore { off_ms } => {
            let _ = write!(s, ",\"off_ms\":{off_ms}");
        }
        EventKind::TxBackoff {
            wait_ms,
            duty_capped,
        } => {
            let _ = write!(s, ",\"wait_ms\":{wait_ms},\"duty_capped\":{duty_capped}");
        }
        EventKind::Snapshot(snap) => {
            let _ = write!(
                s,
                ",\"irradiance\":{},\"stored_j\":{},\"on\":{},\"occupancy\":{},\"lambda\":{},\
                 \"correction_s\":{},\"active_option\":{},\"ibo_discards\":{}",
                JsonF64(snap.irradiance),
                JsonF64(snap.stored_j),
                snap.on,
                snap.occupancy,
                JsonF64(snap.lambda),
                JsonF64(snap.correction_s),
                JsonOpt(snap.active_option),
                snap.ibo_discards
            );
        }
        EventKind::FaultInjected { fault } => {
            let _ = write!(s, ",\"fault\":\"{fault}\"");
        }
    }
    s.push('}');
}

/// Writes the event log as JSON Lines: one object per event. Lines are
/// formatted into a reusable arena and flushed to `w` every
/// [`EMIT_BLOCK_EVENTS`] events — byte-identical to writing each line
/// individually.
pub fn write_jsonl<W: Write>(mut w: W, events: &[Event]) -> io::Result<()> {
    let mut arena = String::new();
    for (i, event) in events.iter().enumerate() {
        event_to_json_into(&mut arena, event);
        arena.push('\n');
        if (i + 1) % EMIT_BLOCK_EVENTS == 0 {
            w.write_all(arena.as_bytes())?;
            arena.clear();
        }
    }
    w.write_all(arena.as_bytes())?;
    Ok(())
}

/// The fixed CSV header used by [`write_csv`].
pub const CSV_HEADER: &str =
    "t_ms,kind,job,option,occupancy,capacity,lambda,expected_service_s,observed_s,\
     error_s,correction_s,predicted_arrivals,ibo_predicted,unavoidable,interesting,\
     device_on,checkpointed,off_ms,stored_j,irradiance,on";

/// The [`CSV_HEADER`] columns after `t_ms,kind`, in header order.
#[derive(Clone, Copy)]
enum Col {
    Job,
    Option,
    Occupancy,
    Capacity,
    Lambda,
    Expected,
    Observed,
    Error,
    Correction,
    PredictedArrivals,
    IboPredicted,
    Unavoidable,
    Interesting,
    DeviceOn,
    Checkpointed,
    OffMs,
    StoredJ,
    Irradiance,
    On,
}

/// Number of [`Col`] slots in a row.
const CSV_SLOTS: usize = Col::On as usize + 1;

/// One CSV row's column slots, reused across rows: clearing keeps each
/// slot's capacity, so a steady-state row allocates nothing.
struct CsvRow([String; CSV_SLOTS]);

impl CsvRow {
    fn set(&mut self, col: Col, v: impl fmt::Display) {
        let _ = write!(self.0[col as usize], "{v}");
    }
}

/// Writes the event log as flat CSV; columns an event kind does not
/// define are left empty. Rows accumulate in a reusable arena and
/// flush every [`EMIT_BLOCK_EVENTS`] events, byte-identical to
/// row-at-a-time writes.
pub fn write_csv<W: Write>(mut w: W, events: &[Event]) -> io::Result<()> {
    let mut arena = String::new();
    let _ = writeln!(arena, "{CSV_HEADER}");
    let mut row = CsvRow(Default::default());
    for (idx, e) in events.iter().enumerate() {
        row.0.iter_mut().for_each(String::clear);
        match &e.kind {
            EventKind::SchedulerPick {
                job,
                expected_service_s,
                correction_s,
                ..
            } => {
                row.set(Col::Job, job);
                row.set(Col::Expected, expected_service_s);
                row.set(Col::Correction, correction_s);
            }
            EventKind::IboDecision {
                job,
                lambda,
                occupancy,
                capacity,
                expected_service_s,
                predicted_arrivals,
                ibo_predicted,
                unavoidable,
                chosen_option,
                ..
            } => {
                row.set(Col::Job, job);
                row.set(Col::Lambda, lambda);
                row.set(Col::Occupancy, occupancy);
                row.set(Col::Capacity, capacity);
                row.set(Col::Expected, expected_service_s);
                row.set(Col::PredictedArrivals, predicted_arrivals);
                row.set(Col::IboPredicted, ibo_predicted);
                row.set(Col::Unavoidable, unavoidable);
                row.set(Col::Option, chosen_option);
            }
            EventKind::PidUpdate {
                job,
                predicted_s,
                observed_s,
                error_s,
                correction_s,
            } => {
                row.set(Col::Job, job);
                row.set(Col::Expected, predicted_s);
                row.set(Col::Observed, observed_s);
                row.set(Col::Error, error_s);
                row.set(Col::Correction, correction_s);
            }
            EventKind::JobComplete { job, observed_s } => {
                row.set(Col::Job, job);
                row.set(Col::Observed, observed_s);
            }
            EventKind::JobStart {
                job,
                option,
                occupancy,
            } => {
                row.set(Col::Job, job);
                row.set(Col::Option, option);
                row.set(Col::Occupancy, occupancy);
            }
            EventKind::BufferAdmit {
                job,
                occupancy,
                interesting,
            } => {
                row.set(Col::Job, job);
                row.set(Col::Occupancy, occupancy);
                row.set(Col::Interesting, interesting);
            }
            EventKind::IboDiscard {
                occupancy,
                interesting,
                device_on,
                active_option,
            } => {
                row.set(Col::Occupancy, occupancy);
                row.set(Col::Interesting, interesting);
                row.set(Col::DeviceOn, device_on);
                if let Some(o) = active_option {
                    row.set(Col::Option, o);
                }
            }
            EventKind::PowerFailure { checkpointed } => row.set(Col::Checkpointed, checkpointed),
            EventKind::Checkpoint => {}
            EventKind::Restore { off_ms } => row.set(Col::OffMs, off_ms),
            // Backoff waits reuse the generic off_ms duration column.
            EventKind::TxBackoff { wait_ms, .. } => row.set(Col::OffMs, wait_ms),
            EventKind::Snapshot(snap) => {
                row.set(Col::Occupancy, snap.occupancy);
                row.set(Col::Lambda, snap.lambda);
                row.set(Col::Correction, snap.correction_s);
                row.set(Col::StoredJ, snap.stored_j);
                row.set(Col::Irradiance, snap.irradiance);
                row.set(Col::On, snap.on);
                if let Some(o) = snap.active_option {
                    row.set(Col::Option, o);
                }
            }
            // The fault class is visible through the kind column only;
            // fault events carry no numeric payload.
            EventKind::FaultInjected { .. } => {}
        }
        let _ = write!(arena, "{},{}", e.t_ms, e.kind.name());
        for slot in &row.0 {
            arena.push(',');
            arena.push_str(slot);
        }
        arena.push('\n');
        if (idx + 1) % EMIT_BLOCK_EVENTS == 0 {
            w.write_all(arena.as_bytes())?;
            arena.clear();
        }
    }
    w.write_all(arena.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CandidateEval, OptionEval, Snapshot};

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                t_ms: 10,
                kind: EventKind::SchedulerPick {
                    job: 1,
                    expected_service_s: 2.5,
                    correction_s: 0.1,
                    p_in_w: 0.02,
                    candidates: vec![CandidateEval {
                        job: 1,
                        expected_service_s: 2.4,
                        oldest_input_age_s: 0.5,
                        selected: true,
                    }],
                },
            },
            Event {
                t_ms: 11,
                kind: EventKind::IboDecision {
                    job: 1,
                    lambda: 0.5,
                    occupancy: 3,
                    capacity: 10,
                    expected_service_s: 2.5,
                    predicted_arrivals: 1.25,
                    ibo_predicted: false,
                    unavoidable: false,
                    chosen_option: 0,
                    options: vec![OptionEval {
                        option: 0,
                        expected_service_s: 2.5,
                        predicts_overflow: false,
                    }],
                },
            },
            Event {
                t_ms: 12,
                kind: EventKind::IboDiscard {
                    occupancy: 10,
                    interesting: true,
                    device_on: false,
                    active_option: None,
                },
            },
            Event {
                t_ms: 13,
                kind: EventKind::Checkpoint,
            },
        ]
    }

    #[test]
    fn jsonl_is_one_valid_looking_object_per_line() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"t_ms\":"));
        }
        assert!(lines[0].contains("\"kind\":\"scheduler_pick\""));
        assert!(lines[0].contains("\"candidates\":[{"));
        assert!(lines[1].contains("\"options\":[{"));
        assert!(lines[2].contains("\"active_option\":null"));
    }

    #[test]
    fn csv_has_header_and_constant_column_count() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let cols = lines[0].split(',').count();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert!(lines[3].contains("ibo_discard"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event {
            t_ms: 0,
            kind: EventKind::PidUpdate {
                job: 0,
                predicted_s: f64::NAN,
                observed_s: 1.0,
                error_s: f64::INFINITY,
                correction_s: 0.0,
            },
        };
        let json = event_to_json(&e);
        assert!(json.contains("\"predicted_s\":null"));
        assert!(json.contains("\"error_s\":null"));
    }

    /// One event of every kind, with non-finite floats, both arms of
    /// every `Option`, and multi-entry candidate/option lists.
    fn every_kind() -> Vec<Event> {
        let kinds = vec![
            EventKind::SchedulerPick {
                job: 2,
                expected_service_s: 0.1 + 0.2,
                correction_s: -1.5e-7,
                p_in_w: f64::INFINITY,
                candidates: vec![
                    CandidateEval {
                        job: 2,
                        expected_service_s: 1e21,
                        oldest_input_age_s: 0.0,
                        selected: true,
                    },
                    CandidateEval {
                        job: 0,
                        expected_service_s: f64::NAN,
                        oldest_input_age_s: 12.75,
                        selected: false,
                    },
                ],
            },
            EventKind::IboDecision {
                job: 1,
                lambda: 1.0 / 3.0,
                occupancy: 7,
                capacity: 8,
                expected_service_s: 4.0,
                predicted_arrivals: f64::NEG_INFINITY,
                ibo_predicted: true,
                unavoidable: false,
                chosen_option: 2,
                options: vec![
                    OptionEval {
                        option: 0,
                        expected_service_s: 4.0,
                        predicts_overflow: true,
                    },
                    OptionEval {
                        option: 2,
                        expected_service_s: 2.5e-9,
                        predicts_overflow: false,
                    },
                ],
            },
            EventKind::PidUpdate {
                job: 1,
                predicted_s: 2.0,
                observed_s: 2.25,
                error_s: -0.25,
                correction_s: f64::NAN,
            },
            EventKind::JobComplete {
                job: 1,
                observed_s: 1e-5,
            },
            EventKind::JobStart {
                job: 3,
                option: 1,
                occupancy: 4,
            },
            EventKind::BufferAdmit {
                job: 0,
                occupancy: 5,
                interesting: true,
            },
            EventKind::IboDiscard {
                occupancy: 8,
                interesting: false,
                device_on: true,
                active_option: Some(1),
            },
            EventKind::IboDiscard {
                occupancy: 8,
                interesting: true,
                device_on: false,
                active_option: None,
            },
            EventKind::PowerFailure { checkpointed: true },
            EventKind::Checkpoint,
            EventKind::Restore { off_ms: 12_345 },
            EventKind::TxBackoff {
                wait_ms: 640,
                duty_capped: true,
            },
            EventKind::Snapshot(Snapshot {
                irradiance: 0.625,
                stored_j: f64::INFINITY,
                on: false,
                occupancy: 3,
                lambda: 0.05,
                correction_s: -0.0,
                active_option: Some(0),
                ibo_discards: u64::MAX,
            }),
            EventKind::Snapshot(Snapshot {
                irradiance: 1.0,
                stored_j: 0.0125,
                on: true,
                occupancy: 0,
                lambda: f64::NAN,
                correction_s: 3.0,
                active_option: None,
                ibo_discards: 0,
            }),
            EventKind::FaultInjected {
                fault: "adc_misread",
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                t_ms: 1000 * i as u64 + 7,
                kind,
            })
            .collect()
    }

    /// The exact bytes both exporters wrote before they formatted
    /// straight into the arena; any formatting drift fails here.
    const PINNED_JSONL: &str = r#"{"t_ms":7,"kind":"scheduler_pick","job":2,"expected_service_s":0.30000000000000004,"correction_s":-0.00000015,"p_in_w":null,"candidates":[{"job":2,"expected_service_s":1000000000000000000000,"oldest_input_age_s":0,"selected":true},{"job":0,"expected_service_s":null,"oldest_input_age_s":12.75,"selected":false}]}
{"t_ms":1007,"kind":"ibo_decision","job":1,"lambda":0.3333333333333333,"occupancy":7,"capacity":8,"expected_service_s":4,"predicted_arrivals":null,"ibo_predicted":true,"unavoidable":false,"chosen_option":2,"options":[{"option":0,"expected_service_s":4,"predicts_overflow":true},{"option":2,"expected_service_s":0.0000000025,"predicts_overflow":false}]}
{"t_ms":2007,"kind":"pid_update","job":1,"predicted_s":2,"observed_s":2.25,"error_s":-0.25,"correction_s":null}
{"t_ms":3007,"kind":"job_complete","job":1,"observed_s":0.00001}
{"t_ms":4007,"kind":"job_start","job":3,"option":1,"occupancy":4}
{"t_ms":5007,"kind":"buffer_admit","job":0,"occupancy":5,"interesting":true}
{"t_ms":6007,"kind":"ibo_discard","occupancy":8,"interesting":false,"device_on":true,"active_option":1}
{"t_ms":7007,"kind":"ibo_discard","occupancy":8,"interesting":true,"device_on":false,"active_option":null}
{"t_ms":8007,"kind":"power_failure","checkpointed":true}
{"t_ms":9007,"kind":"checkpoint"}
{"t_ms":10007,"kind":"restore","off_ms":12345}
{"t_ms":11007,"kind":"tx_backoff","wait_ms":640,"duty_capped":true}
{"t_ms":12007,"kind":"snapshot","irradiance":0.625,"stored_j":null,"on":false,"occupancy":3,"lambda":0.05,"correction_s":-0,"active_option":0,"ibo_discards":18446744073709551615}
{"t_ms":13007,"kind":"snapshot","irradiance":1,"stored_j":0.0125,"on":true,"occupancy":0,"lambda":null,"correction_s":3,"active_option":null,"ibo_discards":0}
{"t_ms":14007,"kind":"fault_injected","fault":"adc_misread"}
"#;

    const PINNED_CSV: &str = r#"t_ms,kind,job,option,occupancy,capacity,lambda,expected_service_s,observed_s,error_s,correction_s,predicted_arrivals,ibo_predicted,unavoidable,interesting,device_on,checkpointed,off_ms,stored_j,irradiance,on
7,scheduler_pick,2,,,,,0.30000000000000004,,,-0.00000015,,,,,,,,,,
1007,ibo_decision,1,2,7,8,0.3333333333333333,4,,,,-inf,true,false,,,,,,,
2007,pid_update,1,,,,,2,2.25,-0.25,NaN,,,,,,,,,,
3007,job_complete,1,,,,,,0.00001,,,,,,,,,,,,
4007,job_start,3,1,4,,,,,,,,,,,,,,,,
5007,buffer_admit,0,,5,,,,,,,,,,true,,,,,,
6007,ibo_discard,,1,8,,,,,,,,,,false,true,,,,,
7007,ibo_discard,,,8,,,,,,,,,,true,false,,,,,
8007,power_failure,,,,,,,,,,,,,,,true,,,,
9007,checkpoint,,,,,,,,,,,,,,,,,,,
10007,restore,,,,,,,,,,,,,,,,12345,,,
11007,tx_backoff,,,,,,,,,,,,,,,,640,,,
12007,snapshot,,0,3,,0.05,,,,-0,,,,,,,,inf,0.625,false
13007,snapshot,,,0,,NaN,,,,3,,,,,,,,0.0125,1,true
14007,fault_injected,,,,,,,,,,,,,,,,,,,
"#;

    #[test]
    fn exports_of_every_kind_are_pinned_byte_for_byte() {
        let mut jsonl = Vec::new();
        write_jsonl(&mut jsonl, &every_kind()).unwrap();
        assert_eq!(String::from_utf8(jsonl).unwrap(), PINNED_JSONL);
        let mut csv = Vec::new();
        write_csv(&mut csv, &every_kind()).unwrap();
        assert_eq!(String::from_utf8(csv).unwrap(), PINNED_CSV);
        for (event, line) in every_kind().iter().zip(PINNED_JSONL.lines()) {
            assert_eq!(event_to_json(event), line);
        }
    }
}
