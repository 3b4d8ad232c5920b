//! Per-layer measurements: raw per-pass accumulators and the derived
//! `<crate>.<metric>` values the traced run prints.

use std::collections::BTreeMap;

/// Raw accumulators one traced pass fills, keyed by name. Keys ending
/// in `_ns_total` or `_s` are timings; every other key is a
/// deterministic work count that must repeat exactly between two runs
/// of the same seed.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_default() += v;
    }

    pub fn add_ns(&mut self, key: &'static str, ns: u64) {
        self.add(key, ns as f64);
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Records a simulation's horizon accounting.
    pub fn add_horizon(&mut self, h: &qz_prof::HorizonStats) {
        self.add("sim.ref_ticks", h.total_ref_ticks() as f64);
        self.add("sim.skipped_ticks", h.total_skipped_ticks() as f64);
        self.add("sim.busy_block_ticks", h.busy_block_ticks() as f64);
        self.add("sim.busy_tail_ticks", h.busy_tail_ticks() as f64);
    }

    /// Records a counting observer's totals.
    pub fn add_counts(&mut self, c: &crate::observe::Counts) {
        self.add("core.schedule_calls", c.scheduler_pick as f64);
        self.add("core.ibo_predicted", c.ibo_predicted as f64);
        self.add("core.pid_updates", c.pid_update as f64);
        self.add("core.jobs", c.job_start as f64);
        self.add("core.jobs_degraded", c.job_start_degraded as f64);
    }

    fn is_timing(key: &str) -> bool {
        key.ends_with("_ns_total") || key.ends_with("_s")
    }

    /// The work counts (every non-timing key).
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0
            .iter()
            .filter(|(k, _)| !Self::is_timing(k))
            .map(|(k, v)| (*k, *v))
    }
}

/// Every per-layer metric the traced run prints, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traces.generate_s", "s"),
    ("check.preflight_s", "s"),
    ("app.build_s", "s"),
    ("sim.step_calls", "count"),
    ("sim.step_ns", "ns"),
    ("sim.ref_ticks", "count"),
    ("sim.skipped_ticks", "count"),
    ("sim.skip_frac", "ratio"),
    ("sim.busy_block_ticks", "count"),
    ("sim.busy_tail_ticks", "count"),
    ("energy.step_ns", "ns"),
    ("energy.advance_ns_per_tick", "ns"),
    ("core.schedule_calls", "count"),
    ("core.ibo_predicted", "count"),
    ("core.degraded_frac", "ratio"),
    ("core.pid_updates", "count"),
    ("core.schedule_ns", "ns"),
    ("obs.events", "count"),
    ("obs.bytes", "bytes"),
    ("obs.emit_ns_per_event", "ns"),
    ("snap.save_ns", "ns"),
    ("snap.restore_ns", "ns"),
    ("snap.encode_ns", "ns"),
    ("snap.decode_ns", "ns"),
    ("snap.bytes", "bytes"),
    ("fault.campaigns", "count"),
    ("fault.faults_injected", "count"),
    ("fault.violations", "count"),
    ("fleet.run_s", "s"),
    ("fleet.tx_total", "count"),
    ("fleet.collided_frac", "ratio"),
    ("fleet.report_json_ns", "ns"),
    ("fleet.report_bytes", "bytes"),
    ("alloc.count_per_sim_s", "1/s"),
    ("alloc.bytes_per_sim_s", "B/s"),
    ("trace.overhead_frac", "ratio"),
    ("calib.kernel_ms", "ms"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives the printed per-layer metrics from one pass's accumulators.
/// `alloc.*` and `trace.overhead_frac` come from the untraced passes
/// and are filled in by the caller.
pub fn derive(l: &Layers) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for key in [
        "traces.generate_s",
        "check.preflight_s",
        "app.build_s",
        "sim.step_calls",
        "sim.ref_ticks",
        "sim.skipped_ticks",
        "sim.busy_block_ticks",
        "sim.busy_tail_ticks",
        "core.schedule_calls",
        "core.ibo_predicted",
        "core.pid_updates",
        "obs.events",
        "obs.bytes",
        "fault.campaigns",
        "fault.faults_injected",
        "fault.violations",
        "fleet.run_s",
        "fleet.tx_total",
        "fleet.report_bytes",
    ] {
        m.insert(key, l.get(key));
    }
    let per = |ns: &str, n: &str| ratio(l.get(ns), l.get(n));
    m.insert("sim.step_ns", per("sim.step_ns_total", "sim.step_calls"));
    m.insert(
        "sim.skip_frac",
        ratio(
            l.get("sim.skipped_ticks"),
            l.get("sim.skipped_ticks") + l.get("sim.ref_ticks"),
        ),
    );
    m.insert(
        "energy.step_ns",
        per("energy.step_ns_total", "energy.step_ticks"),
    );
    m.insert(
        "energy.advance_ns_per_tick",
        per("energy.advance_ns_total", "energy.advance_ticks"),
    );
    m.insert("core.degraded_frac", per("core.jobs_degraded", "core.jobs"));
    m.insert(
        "core.schedule_ns",
        per("core.replay_ns_total", "core.replay_calls"),
    );
    m.insert(
        "obs.emit_ns_per_event",
        per("obs.export_ns_total", "obs.events"),
    );
    m.insert("snap.save_ns", per("snap.save_ns_total", "snap.saves"));
    m.insert(
        "snap.restore_ns",
        per("snap.restore_ns_total", "snap.restores"),
    );
    m.insert(
        "snap.encode_ns",
        per("snap.encode_ns_total", "snap.encodes"),
    );
    m.insert(
        "snap.decode_ns",
        per("snap.decode_ns_total", "snap.decodes"),
    );
    m.insert("snap.bytes", per("snap.bytes_total", "snap.encodes"));
    m.insert(
        "fleet.collided_frac",
        per("fleet.collided_tx", "fleet.tx_total"),
    );
    m.insert(
        "fleet.report_json_ns",
        per("fleet.report_json_ns_total", "fleet.reports"),
    );
    m
}
