//! The four workloads and what one pass of each returns.

mod faults;
mod fleet;
mod sweep;
mod trace;

use crate::calib;
use crate::layers::Layers;
use crate::spans::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One unit's outcome.
#[derive(Debug)]
pub struct UnitOut {
    /// Host latency, milliseconds.
    pub ms: f64,
    /// Digest of the unit's outputs.
    pub digest: u64,
    /// Why the unit failed (error, panic, invariant violation, or a
    /// failed output check), if it did.
    pub failure: Option<String>,
}

impl UnitOut {
    pub fn failed(ms: f64, why: String) -> UnitOut {
        UnitOut {
            ms,
            digest: 0,
            failure: Some(why),
        }
    }
}

/// One pass: a set-up, then the timed region running every unit once.
#[derive(Debug)]
pub struct Pass {
    pub setup_s: f64,
    pub host_s: f64,
    /// Simulated device-seconds completed in the timed region.
    pub sim_s: f64,
    /// Heap allocations (count, bytes) in the timed region.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub units: Vec<UnitOut>,
}

pub trait Workload {
    /// Runs one pass. With `tr` enabled, records spans and fills
    /// `layers`; the outputs must not depend on it.
    fn pass(&self, tr: &mut Tracer, layers: &mut Layers) -> Pass;

    /// Byte-compares a small slice of the workload with the in-repo
    /// reference path; describes what matched.
    fn reference_check(&self) -> Result<String, String>;

    /// Layer probes run after a traced pass, outside its timing.
    fn probe(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<(), String>;

    /// Whether the workload runs worker threads.
    fn threaded(&self) -> bool {
        false
    }

    /// The calibration kernel that slows as this workload does.
    fn calibration(&self) -> calib::Mix;
}

/// Runs one unit, timing it and turning a panic into a failure.
pub fn run_unit<T>(f: impl FnOnce() -> Result<T, String>) -> (f64, Result<T, String>) {
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    crate::calib::sample();
    (ms, r)
}

pub const NAMES: [&str; 4] = ["sweep", "faults", "fleet", "trace"];

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sweep" => Box::new(sweep::Sweep { seed }),
        "faults" => Box::new(faults::Faults { seed }),
        "fleet" => Box::new(fleet::Fleet { seed }),
        "trace" => Box::new(trace::Trace { seed }),
        _ => return None,
    })
}
