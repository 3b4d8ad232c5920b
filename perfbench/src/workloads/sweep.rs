//! `sweep`: the paper's comparison grid (Figs. 10 and 12): ten systems
//! over {more-crowded, crowded, quiet} × two seeds, clean, with no
//! observer. One unit is one config run to completion.

use super::{run_unit, Pass, UnitOut, Workload};
use crate::calib;
use crate::common::{
    checked_build, conservation, core_probe, energy_probe, fastest_setup, generate, run_to_end,
    sub_seed, tweaks, Timer,
};
use crate::layers::Layers;
use crate::spans::Tracer;
use crate::stats::digest;
use qz_app::{apollo4, DeviceProfile};
use qz_baselines::BaselineKind;
use qz_sim::Simulation;
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::Watts;
use std::hint::black_box;
use std::time::Instant;

/// The systems Figs. 10 and 12 compare.
const SYSTEMS: [BaselineKind; 10] = [
    BaselineKind::Quetzal,
    BaselineKind::QuetzalHw,
    BaselineKind::NoAdapt,
    BaselineKind::AlwaysDegrade,
    BaselineKind::CatNap,
    BaselineKind::FixedThreshold(0.50),
    // PZO: half the 6-cell harvester's rated maximum,
    // `qz_app::pzo_threshold(6, Watts(0.010))`, as `qz` spells it.
    BaselineKind::PowerThreshold(Watts(0.030)),
    BaselineKind::FcfsIbo,
    BaselineKind::LcfsIbo,
    BaselineKind::AvgSe2e,
];

/// Environments and their event counts, sized so a config costs about
/// the same in each (one latency cluster, so the unit percentiles do not
/// sit on a gap): more-crowded time goes to busy ticks, quiet time to
/// skipped spans.
const ENVS: [(EnvironmentKind, usize); 3] = [
    (EnvironmentKind::MoreCrowded, 30),
    (EnvironmentKind::Crowded, 250),
    (EnvironmentKind::Quiet, 240),
];
const SEEDS_PER_ENV: u64 = 2;

pub struct Sweep {
    pub seed: u64,
}

impl Sweep {
    fn envs(&self, tr: &mut Tracer, layers: &mut Layers) -> Vec<SensingEnvironment> {
        let mut envs = Vec::new();
        for (e, &(kind, events)) in ENVS.iter().enumerate() {
            for s in 0..SEEDS_PER_ENV {
                let seed = sub_seed(self.seed, 100 + e as u64 * SEEDS_PER_ENV + s);
                envs.push(generate(kind, events, seed, tr, layers));
            }
        }
        envs
    }

    fn sim_seed(&self, unit: usize) -> u64 {
        sub_seed(self.seed, 1000 + unit as u64)
    }

    /// Every system's simulation on every environment.
    fn sims<'a>(
        &self,
        envs: &'a [SensingEnvironment],
        profile: &DeviceProfile,
        tr: &mut Tracer,
        layers: &mut Layers,
    ) -> Vec<Result<Simulation<'a>, String>> {
        let mut sims = Vec::new();
        for env in envs {
            for kind in SYSTEMS {
                let tw = tweaks(self.sim_seed(sims.len()));
                sims.push(checked_build(kind, profile, env, &tw, tr, layers));
            }
        }
        sims
    }
}

impl Workload for Sweep {
    fn pass(&self, tr: &mut Tracer, layers: &mut Layers) -> Pass {
        let profile = apollo4();
        let setup = Instant::now();
        let envs = self.envs(tr, layers);
        let sims = self.sims(&envs, &profile, tr, layers);
        let setup_s = fastest_setup(setup.elapsed().as_secs_f64(), tr, |tr, layers| {
            let envs = self.envs(tr, layers);
            black_box(self.sims(&envs, &profile, tr, layers));
        });

        let timer = Timer::start();
        let mut results = Vec::with_capacity(sims.len());
        for (i, sim) in sims.into_iter().enumerate() {
            tr.set_unit(i as u32);
            results.push(run_unit(|| {
                let mut sim = sim?;
                let open = tr.begin("sim.run");
                run_to_end(&mut sim, tr, layers);
                tr.end(open);
                Ok(sim.metrics().clone())
            }));
        }
        let (host_s, allocs, alloc_bytes) = timer.stop();

        let mut sim_s = 0.0;
        let units = results
            .into_iter()
            .map(|(ms, r)| match r {
                Ok(m) => {
                    sim_s += m.sim_time.as_seconds().value();
                    UnitOut {
                        ms,
                        digest: digest(&[format!("{m:?}").as_bytes()]),
                        failure: conservation(&m, true).err(),
                    }
                }
                Err(e) => UnitOut::failed(ms, e),
            })
            .collect();
        Pass {
            setup_s,
            host_s,
            sim_s,
            allocs,
            alloc_bytes,
            units,
        }
    }

    /// Schedulers branch and ten configs' state does not fit one core's
    /// L2 cache, but much of the time is the energy integrator's
    /// dependent arithmetic, which hardly slows: the chain takes about
    /// 40 % of a sample.
    fn calibration(&self) -> calib::Mix {
        calib::Mix {
            scans: 250,
            sorts: 5,
            chase_steps: 5_000,
            chain_steps: 50_000,
            reference_s: 0.0027,
            elasticity: 0.7,
        }
    }

    /// The first environment's first two configs on the tick engine
    /// must produce the same `Metrics` bytes as on fast-forward.
    fn reference_check(&self) -> Result<String, String> {
        let mut tr = Tracer::new(false);
        let mut layers = Layers::default();
        let (kind, events) = ENVS[1];
        let env = generate(
            kind,
            events,
            sub_seed(self.seed, 100 + SEEDS_PER_ENV),
            &mut tr,
            &mut layers,
        );
        let profile = apollo4();
        for (i, system) in SYSTEMS.iter().take(2).enumerate() {
            let fast = tweaks(self.sim_seed(i));
            let tick = qz_app::SimTweaks {
                engine: qz_sim::EngineKind::Tick,
                ..fast.clone()
            };
            let a = qz_app::simulate(*system, &profile, &env, &fast);
            let b = qz_app::simulate(*system, &profile, &env, &tick);
            if format!("{a:?}") != format!("{b:?}") {
                return Err(format!(
                    "{system:?}: fast-forward Metrics differ from the tick engine"
                ));
            }
        }
        Ok(format!(
            "tick engine == fast-forward on 2 {} configs",
            kind.label()
        ))
    }

    /// Energy probe on one environment of each kind; the counting
    /// observer (reconciled against `Metrics`) and the `schedule`
    /// replay on the first seed of every environment.
    fn probe(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
        let profile = apollo4();
        let mut scratch = Layers::default();
        let envs = self.envs(&mut Tracer::new(false), &mut scratch);
        for env in envs.iter().step_by(SEEDS_PER_ENV as usize) {
            energy_probe(env, &profile, 4_000_000, tr, layers);
        }
        for (e, env) in envs.iter().enumerate().step_by(SEEDS_PER_ENV as usize) {
            for (k, &kind) in SYSTEMS.iter().enumerate() {
                let unit = e * SYSTEMS.len() + k;
                core_probe(
                    kind,
                    &profile,
                    env,
                    &tweaks(self.sim_seed(unit)),
                    tr,
                    layers,
                )
                .map_err(|err| format!("unit {unit}: {err}"))?;
            }
        }
        Ok(())
    }
}
