//! Helpers every workload shares: seeds, timers, the split
//! preflight/build path, timed stepping, and the energy probe.

use crate::layers::Layers;
use crate::observe::{reconcile, replay_schedule, CountingObserver};
use crate::spans::Tracer;
use qz_app::{check_experiment, experiment_configs, DeviceProfile, SimTweaks};
use qz_baselines::{build_runtime, BaselineKind};
use qz_energy::StopCondition;
use qz_sim::{Metrics, Simulation};
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::{Joules, SimDuration, SimTime, SplitMix64, Watts};
use std::hint::black_box;
use std::time::Instant;

/// Derives an independent input seed from the benchmark's `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::derive_stream(seed, stream)
}

pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Set-ups timed per untraced pass; `setup_s` is the fastest.
pub const SETUP_REPEATS: usize = 5;

/// The fastest of a pass's set-up time `first_s` and, unless `tr` is
/// tracing, `SETUP_REPEATS - 1` more runs of `set_up`, back to back.
/// Back-to-back set-ups run with warm caches; a single cold one swung
/// with the host by up to half. The repeats drop what they build (the
/// drop is timed) and record nothing in `tr` or the pass's layers.
pub fn fastest_setup(
    first_s: f64,
    tr: &Tracer,
    mut set_up: impl FnMut(&mut Tracer, &mut Layers),
) -> f64 {
    if tr.enabled() {
        return first_s;
    }
    let mut best = first_s;
    for _ in 1..SETUP_REPEATS {
        let (mut scratch_tr, mut scratch_layers) = (Tracer::new(false), Layers::default());
        let t0 = Instant::now();
        set_up(&mut scratch_tr, &mut scratch_layers);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Host time and allocations of a timed region.
pub struct Timer {
    t0: Instant,
    allocs: (u64, u64),
    calib_s: f64,
}

impl Timer {
    pub fn start() -> Timer {
        Timer {
            allocs: crate::alloc::totals(),
            calib_s: crate::calib::spent_s(),
            t0: Instant::now(),
        }
    }

    /// `(seconds, allocations, bytes allocated)` since `start`, less
    /// the time spent in calibration samples.
    pub fn stop(self) -> (f64, u64, u64) {
        let secs = self.t0.elapsed().as_secs_f64() - (crate::calib::spent_s() - self.calib_s);
        let (c, b) = crate::alloc::totals();
        (secs, c - self.allocs.0, b - self.allocs.1)
    }
}

/// Simulator knobs for every run: the Table 1 defaults on the
/// fast-forward engine (named explicitly, so no environment variable
/// can switch the engine under the benchmark).
pub fn tweaks(seed: u64) -> SimTweaks {
    SimTweaks {
        seed,
        engine: qz_sim::EngineKind::FastForward,
        ..SimTweaks::default()
    }
}

/// Generates a sensing environment inside a `traces.generate` span.
pub fn generate(
    kind: EnvironmentKind,
    events: usize,
    seed: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> SensingEnvironment {
    let open = tr.begin("traces.generate");
    let env = SensingEnvironment::generate(kind, events, seed);
    layers.add("traces.generate_s", tr.end(open) as f64 / 1e9);
    env
}

/// `qz_app::build_simulation` split into its two layers: the `qz-check`
/// preflight (a `check.preflight` span; errors fail the unit) and the
/// assembly (an `app.build` span).
pub fn checked_build<'a>(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &'a SensingEnvironment,
    tweaks: &SimTweaks,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<Simulation<'a>, String> {
    let open = tr.begin("check.preflight");
    let report = check_experiment(kind, profile, tweaks);
    layers.add("check.preflight_s", tr.end(open) as f64 / 1e9);
    if report.has_errors() {
        return Err(format!(
            "qz-check rejected {kind:?}: {}",
            report.render_text()
        ));
    }
    let open = tr.begin("app.build");
    let built = build(kind, profile, env, tweaks);
    layers.add("app.build_s", tr.end(open) as f64 / 1e9);
    built
}

/// The assembly half of `qz_app::build_simulation`.
pub fn build<'a>(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &'a SensingEnvironment,
    tweaks: &SimTweaks,
) -> Result<Simulation<'a>, String> {
    let (app, qcfg, cfg) = experiment_configs(kind, profile, tweaks);
    let runtime = build_runtime(kind, app.spec.clone(), qcfg).map_err(|e| format!("{e:?}"))?;
    Simulation::new(cfg, env, runtime, app.entry, app.behaviors, app.routes)
        .map_err(|e| format!("{e:?}"))
}

/// Steps `sim` to completion. Traced, every `step` call is timed from
/// outside and the horizon accounting is recorded.
pub fn run_to_end(sim: &mut Simulation<'_>, tr: &Tracer, layers: &mut Layers) {
    if !tr.enabled() {
        while sim.step() {}
        return;
    }
    let (mut calls, mut ns) = (0u64, 0u64);
    loop {
        let t0 = Instant::now();
        let more = sim.step();
        ns += ns_since(t0);
        calls += 1;
        if !more {
            break;
        }
    }
    layers.add("sim.step_calls", calls as f64);
    layers.add_ns("sim.step_ns_total", ns);
    layers.add_horizon(sim.horizon_stats());
}

/// Steps `sim` up to `limit` (see [`run_to_end`]); returns whether the
/// run can still advance. Horizon stats are left to the caller.
pub fn run_until(
    sim: &mut Simulation<'_>,
    limit: SimTime,
    tr: &Tracer,
    layers: &mut Layers,
) -> bool {
    if !tr.enabled() {
        return sim.step_until(limit);
    }
    let t0 = Instant::now();
    let more = sim.step_until(limit);
    layers.add_ns("sim.step_ns_total", ns_since(t0));
    layers.add("sim.step_calls", 1.0);
    more
}

/// Runs one config with the counting observer installed, reconciles
/// its totals against `Metrics`, then times `Quetzal::schedule` over
/// the recorded scheduling rounds on a runtime restored from the run's
/// final `RuntimeState`.
pub fn core_probe(
    kind: BaselineKind,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tweaks: &SimTweaks,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut sim = build(kind, profile, env, tweaks)?;
    sim.set_observer(Box::new(CountingObserver::default()));
    let open = tr.begin("core.observed_run");
    while sim.step() {}
    tr.end(open);
    let state = sim.save_state()?;
    let obs = CountingObserver::take_from(sim.take_observer()).ok_or("counting observer lost")?;
    reconcile(&obs.counts, sim.metrics(), true).map_err(|e| format!("{kind:?}: {e}"))?;
    layers.add_counts(&obs.counts);

    let (app, qcfg, _) = experiment_configs(kind, profile, tweaks);
    let mut runtime = build_runtime(kind, app.spec, qcfg).map_err(|e| format!("{e:?}"))?;
    runtime.restore_state(&state.runtime)?;
    let open = tr.begin("core.schedule");
    let (calls, ns) = replay_schedule(&mut runtime, &obs.decisions);
    tr.end(open);
    layers.add("core.replay_calls", calls as f64);
    layers.add_ns("core.replay_ns_total", ns);
    Ok(())
}

/// The conservation laws every run obeys (the same ones
/// `tests/end_to_end_shapes.rs` pins). Time accounting is only settled
/// once a run has `finished`.
pub fn conservation(m: &Metrics, finished: bool) -> Result<(), String> {
    let resolved = m.false_negatives + m.true_negatives + m.total_reports() + m.pending;
    if m.arrivals != m.stored + m.ibo_discards {
        Err(format!("arrivals {} != stored + ibo", m.arrivals))
    } else if m.frames_total != m.frames_filtered + m.arrivals + m.frames_missed_off {
        Err(format!("frames {} not conserved", m.frames_total))
    } else if resolved > m.stored + 1 {
        Err(format!("resolved {resolved} > stored {}", m.stored))
    } else if finished && m.sim_time != m.time_on + m.time_off {
        Err("time on + off != sim time".into())
    } else {
        Ok(())
    }
}

/// Drives a standalone `PowerSystem` with `env`'s solar trace and the
/// device's load levels, tick by tick (`energy.step_ns`) and in bulk
/// over constant-irradiance segments (`energy.advance_ns_per_tick`).
/// At most `max_ticks` simulated milliseconds each way.
pub fn energy_probe(
    env: &SensingEnvironment,
    profile: &DeviceProfile,
    max_ticks: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
) {
    let (_, _, cfg) = experiment_configs(BaselineKind::Quetzal, profile, &tweaks(0));
    let d = &profile.device;
    let loads: Vec<Watts> = vec![
        d.sleep_power,
        d.capture.p_exe,
        profile.ml_low.p_exe,
        d.sleep_power,
        profile.ml_high.p_exe,
        profile.radio_byte.p_exe,
    ];
    let solar = env.solar();
    let ticks = env.events().end().as_millis().clamp(1, max_ticks);
    let dt = SimDuration::from_millis(1);
    let fresh = || qz_energy::PowerSystem::new(cfg.power.supercap(), cfg.power.harvester());

    let open = tr.begin("energy.step");
    let mut ps = fresh();
    let t0 = Instant::now();
    for t in 0..ticks {
        let irr = solar.irradiance(SimTime::from_millis(t));
        let load = loads[(t / 1000) as usize % loads.len()];
        black_box(ps.step(irr, load, dt));
    }
    layers.add_ns("energy.step_ns_total", ns_since(t0));
    tr.end(open);
    layers.add("energy.step_ticks", ticks as f64);
    black_box(ps.total_harvested());

    let open = tr.begin("energy.advance");
    let mut ps = fresh();
    let (mut harvested, mut wasted) = (Joules::ZERO, Joules::ZERO);
    let (mut t, mut segment, mut committed) = (0u64, 0usize, 0u64);
    let t0 = Instant::now();
    while t < ticks {
        let (irr, left) = solar.constant_until(SimTime::from_millis(t));
        let n = left.min(ticks - t);
        let load = loads[segment % loads.len()];
        let out = ps.advance(
            irr,
            load,
            dt,
            n,
            StopCondition::None,
            &mut harvested,
            &mut wasted,
        );
        committed += out.ticks;
        t += n;
        segment += 1;
    }
    layers.add_ns("energy.advance_ns_total", ns_since(t0));
    tr.end(open);
    layers.add("energy.advance_ticks", committed as f64);
    black_box((harvested, wasted));
}
