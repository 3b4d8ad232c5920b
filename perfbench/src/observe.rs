//! The counting observer: per-kind event totals for the `core.*`
//! counters, the reconciliation self-check against `Metrics`, and the
//! recorded scheduling inputs that `core.schedule_ns` replays.

use qz_obs::{Event, EventKind, Observer};
use qz_sim::Metrics;
use qz_types::{Seconds, Watts};
use std::hint::black_box;
use std::time::Instant;

/// Event totals by kind.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub scheduler_pick: u64,
    pub ibo_decision: u64,
    pub ibo_predicted: u64,
    pub pid_update: u64,
    pub job_complete: u64,
    pub job_start: u64,
    pub job_start_degraded: u64,
    pub buffer_admit: u64,
    pub ibo_discard: u64,
    pub power_failure: u64,
    pub restore: u64,
    pub fault_injected: u64,
    /// `input_burst` injections (one event per burst of frames).
    pub fault_bursts: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.scheduler_pick += o.scheduler_pick;
        self.ibo_decision += o.ibo_decision;
        self.ibo_predicted += o.ibo_predicted;
        self.pid_update += o.pid_update;
        self.job_complete += o.job_complete;
        self.job_start += o.job_start;
        self.job_start_degraded += o.job_start_degraded;
        self.buffer_admit += o.buffer_admit;
        self.ibo_discard += o.ibo_discard;
        self.power_failure += o.power_failure;
        self.restore += o.restore;
        self.fault_injected += o.fault_injected;
        self.fault_bursts += o.fault_bursts;
    }
}

/// One recorded scheduling round: the runnable candidates with their
/// oldest-input ages, the buffer state and the input power.
#[derive(Debug, Clone)]
pub struct DecisionInput {
    runnable: Vec<(usize, f64)>,
    occupancy: usize,
    capacity: usize,
    p_in_w: f64,
}

/// Counts events by kind and keeps each round's scheduling inputs.
#[derive(Debug, Default)]
pub struct CountingObserver {
    pub counts: Counts,
    pub decisions: Vec<DecisionInput>,
}

impl CountingObserver {
    /// Counts a whole recorded event log.
    pub fn from_events(events: &[Event]) -> CountingObserver {
        let mut c = CountingObserver::default();
        for e in events {
            c.on_event(e);
        }
        c
    }

    /// Recovers the observer a simulation ran with.
    pub fn take_from(mut observer: Box<dyn Observer>) -> Option<CountingObserver> {
        let any = observer.as_any_mut()?;
        any.downcast_mut::<CountingObserver>().map(std::mem::take)
    }
}

impl Observer for CountingObserver {
    fn on_event(&mut self, event: &Event) {
        let c = &mut self.counts;
        match &event.kind {
            EventKind::SchedulerPick {
                p_in_w, candidates, ..
            } => {
                c.scheduler_pick += 1;
                self.decisions.push(DecisionInput {
                    runnable: candidates
                        .iter()
                        .map(|cand| (cand.job, cand.oldest_input_age_s))
                        .collect(),
                    occupancy: 0,
                    capacity: 0,
                    p_in_w: *p_in_w,
                });
            }
            EventKind::IboDecision {
                ibo_predicted,
                occupancy,
                capacity,
                ..
            } => {
                c.ibo_decision += 1;
                c.ibo_predicted += u64::from(*ibo_predicted);
                if let Some(last) = self.decisions.last_mut() {
                    last.occupancy = *occupancy;
                    last.capacity = *capacity;
                }
            }
            EventKind::PidUpdate { .. } => c.pid_update += 1,
            EventKind::JobComplete { .. } => c.job_complete += 1,
            EventKind::JobStart { option, .. } => {
                c.job_start += 1;
                c.job_start_degraded += u64::from(*option > 0);
            }
            EventKind::BufferAdmit { .. } => c.buffer_admit += 1,
            EventKind::IboDiscard { .. } => c.ibo_discard += 1,
            EventKind::PowerFailure { .. } => c.power_failure += 1,
            EventKind::Restore { .. } => c.restore += 1,
            EventKind::FaultInjected { fault } => {
                c.fault_injected += 1;
                c.fault_bursts += u64::from(*fault == "input_burst");
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The reconciliation self-check: the observer's totals must agree with
/// the simulator's own `Metrics`, so a layer that drops events fails
/// loudly. `finished` says whether the run completed; a run stopped
/// mid-way may have one job started but not yet completed.
pub fn reconcile(c: &Counts, m: &Metrics, finished: bool) -> Result<(), String> {
    let mut bad = Vec::new();
    let mut eq = |what: &str, seen: u64, want: u64| {
        if seen != want {
            bad.push(format!("{what}: observer {seen} vs metrics {want}"));
        }
    };
    eq("ibo_discard", c.ibo_discard, m.ibo_discards);
    eq("buffer_admit", c.buffer_admit, m.stored);
    eq("power_failure", c.power_failure, m.power_failures);
    eq("restore", c.restore, m.restores);
    let in_flight = u64::from(!finished && c.job_start > c.job_complete);
    eq("job_start", c.job_start, m.total_jobs() + in_flight);
    eq("job_complete", c.job_complete, m.total_jobs());
    if in_flight == 0 {
        eq(
            "job_start_degraded",
            c.job_start_degraded,
            m.degraded_jobs(),
        );
    }
    // A burst injects several frames under one event; every other
    // fault class emits one event per fault.
    eq(
        "fault_injected",
        c.fault_injected - c.fault_bursts,
        m.faults_total() - m.faults_burst,
    );
    eq(
        "fault_bursts",
        u64::from(c.fault_bursts > 0),
        u64::from(m.faults_burst > 0),
    );
    eq("ibo_decision", c.ibo_decision, c.scheduler_pick);
    eq("pid_update", c.pid_update, m.total_jobs());
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("reconciliation failed: {}", bad.join("; ")))
    }
}

/// Replays recorded scheduling rounds through `runtime`; returns
/// `(calls, total ns)`.
pub fn replay_schedule(runtime: &mut quetzal::Quetzal, inputs: &[DecisionInput]) -> (u64, u64) {
    let spec = runtime.spec().clone();
    let rounds: Vec<_> = inputs
        .iter()
        .map(|d| {
            let runnable: Vec<_> = d
                .runnable
                .iter()
                .filter_map(|&(job, age)| spec.job_id(job).map(|id| (id, Some(Seconds(age)))))
                .collect();
            let buffer = quetzal::runtime::BufferView {
                occupancy: d.occupancy,
                capacity: d.capacity.max(1),
            };
            (runnable, buffer, Watts(d.p_in_w))
        })
        .collect();
    let t0 = Instant::now();
    for (runnable, buffer, p_in) in &rounds {
        black_box(runtime.schedule(black_box(runnable), *buffer, *p_in));
    }
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (rounds.len() as u64, ns)
}
