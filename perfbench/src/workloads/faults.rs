//! `faults`: snapshot-prefix fault campaigns. Burst + `smoke` and
//! Crowded + `standard` families, injection gated at about 75 % of the
//! clean run. One unit is one campaign family.

use super::{run_unit, Pass, UnitOut, Workload};
use crate::calib;
use crate::common::{
    energy_probe, fastest_setup, generate, run_to_end, run_until, sub_seed, tweaks, Timer,
};
use crate::layers::Layers;
use crate::observe::{reconcile, CountingObserver, Counts};
use crate::spans::Tracer;
use crate::stats::digest;
use qz_app::{apollo4, check_experiment, DeviceProfile};
use qz_fault::plan::FaultPlan;
use qz_fault::{run_campaigns_with, AdversarialInjector, CampaignConfig, CampaignMode};
use qz_fleet::Executor;
use qz_obs::Observer;
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// `(environment, events, campaigns, preset)` per family; each appears
/// `COPIES` times per pass with different seeds, so a pass averages
/// over several random scenes.
const FAMILIES: [(EnvironmentKind, usize, usize, &str); 2] = [
    (EnvironmentKind::Burst, 64, 8, "smoke"),
    (EnvironmentKind::Crowded, 20, 4, "standard"),
];
const COPIES: usize = 16;
const THREADS: usize = 2;

pub struct Faults {
    pub seed: u64,
}

impl Faults {
    /// The family configs of one pass with their generated environments
    /// (the environment sets the injection gate).
    fn configs(
        &self,
        tr: &mut Tracer,
        layers: &mut Layers,
    ) -> Vec<(CampaignConfig, SensingEnvironment)> {
        let mut out = Vec::new();
        for _ in 0..COPIES {
            for &(env_kind, events, campaigns, preset) in &FAMILIES {
                let mut cfg = CampaignConfig {
                    env: env_kind,
                    events,
                    campaigns,
                    seed: sub_seed(self.seed, 100 + out.len() as u64),
                    plan: FaultPlan::preset(preset).expect("known preset"),
                    tweaks: tweaks(0),
                    ..CampaignConfig::default()
                };
                let env = generate(env_kind, events, cfg.env_seed(), tr, layers);
                let gate_s = env.events().end().as_millis() * 3 / 4 / 1000;
                cfg.injection_at = SimDuration::from_secs(gate_s);
                out.push((cfg, env));
            }
        }
        out
    }

    fn sim_tweaks(cfg: &CampaignConfig) -> qz_app::SimTweaks {
        let mut tw = cfg.tweaks.clone();
        tw.seed = cfg.sim_seed();
        tw
    }
}

/// Every family's preflights: the config, or why it was rejected.
fn preflight<'a>(
    configs: &'a [(CampaignConfig, SensingEnvironment)],
    profile: &DeviceProfile,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Vec<Result<&'a CampaignConfig, String>> {
    let mut ready = Vec::new();
    for (cfg, _) in configs {
        let open = tr.begin("check.preflight");
        let survivability = qz_fault::preflight(cfg);
        let experiment = check_experiment(cfg.system, profile, &Faults::sim_tweaks(cfg));
        layers.add("check.preflight_s", tr.end(open) as f64 / 1e9);
        ready.push(if survivability.has_errors() || experiment.has_errors() {
            Err(format!(
                "preflight rejected the family: {}{}",
                survivability.render_text(),
                experiment.render_text()
            ))
        } else {
            Ok(cfg)
        });
    }
    ready
}

/// Simulated device-seconds a family completes: the clean and oracle
/// runs in full, plus each fork's suffix from the gate. Estimated from
/// the report's frame counts (one capture attempt per capture period).
fn family_sim_s(cfg: &CampaignConfig, clean_frames: u64, oracle_frames: u64) -> f64 {
    let period = cfg.tweaks.capture_period.as_seconds().value();
    let clean = clean_frames as f64 * period;
    let gate = cfg.injection_at.as_seconds().value();
    clean + oracle_frames as f64 * period + cfg.campaigns as f64 * (clean - gate).max(0.0)
}

impl Workload for Faults {
    fn pass(&self, tr: &mut Tracer, layers: &mut Layers) -> Pass {
        let profile = apollo4();
        let setup = Instant::now();
        let configs = self.configs(tr, layers);
        let ready = preflight(&configs, &profile, tr, layers);
        let setup_s = fastest_setup(setup.elapsed().as_secs_f64(), tr, |tr, layers| {
            let configs = self.configs(tr, layers);
            black_box(preflight(&configs, &profile, tr, layers));
        });

        let timer = Timer::start();
        let mut results = Vec::new();
        for (i, cfg) in ready.into_iter().enumerate() {
            tr.set_unit(i as u32);
            results.push(run_unit(|| {
                let cfg = cfg?;
                let open = tr.begin("fault.campaigns");
                let report =
                    run_campaigns_with(cfg, Executor::new(THREADS), CampaignMode::Snapshot);
                tr.end(open);
                let report = report.map_err(|e| e.to_string())?;
                let json = report.to_json();
                Ok((cfg, report, json))
            }));
        }
        let (host_s, allocs, alloc_bytes) = timer.stop();

        let mut sim_s = 0.0;
        let units = results
            .into_iter()
            .map(|(ms, r)| match r {
                Ok((cfg, report, json)) => {
                    sim_s += family_sim_s(cfg, report.clean_frames, report.oracle_frames);
                    layers.add("fault.campaigns", report.rows.len() as f64);
                    layers.add("fault.faults_injected", report.total_faults() as f64);
                    layers.add("fault.violations", report.total_violations() as f64);
                    let failure = (report.total_violations() > 0)
                        .then(|| format!("{} invariant violation(s)", report.total_violations()));
                    UnitOut {
                        ms,
                        digest: digest(&[json.as_bytes()]),
                        failure,
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

    /// The first family in replay mode (every fork from tick zero) must
    /// produce the same report bytes as in snapshot mode.
    fn reference_check(&self) -> Result<String, String> {
        let configs = self.configs(&mut Tracer::new(false), &mut Layers::default());
        let cfg = &configs[0].0;
        let run = |mode| {
            run_campaigns_with(cfg, Executor::new(THREADS), mode)
                .map(|r| r.to_json())
                .map_err(|e| e.to_string())
        };
        if run(CampaignMode::Replay)? != run(CampaignMode::Snapshot)? {
            return Err("snapshot-mode report differs from replay mode".into());
        }
        Ok(format!(
            "CampaignMode::Replay == Snapshot on a {}-campaign {} family",
            cfg.campaigns, cfg.plan.label
        ))
    }

    fn threaded(&self) -> bool {
        THREADS > 1
    }

    /// Forks copy snapshots (streaming reads) and tick with the
    /// injector armed (branchy code); each tick also integrates energy
    /// (dependent arithmetic, which hardly slows): the chain takes about
    /// 40 % of a sample.
    fn calibration(&self) -> calib::Mix {
        calib::Mix {
            scans: 350,
            sorts: 7,
            chase_steps: 0,
            chain_steps: 50_000,
            reference_s: 0.0027,
            elasticity: 0.7,
        }
    }

    /// Replays each family's snapshot-fork path from outside: the clean
    /// run to the gate, `save_state`, then per campaign a fresh build,
    /// `restore_state`, an armed injector and the suffix. Times the
    /// steps and the snapshot calls, and reconciles the counting
    /// observer (prefix + suffix) against each fork's `Metrics`.
    fn probe(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
        let profile = apollo4();
        let configs = self.configs(&mut Tracer::new(false), &mut Layers::default());
        for (f, (cfg, env)) in configs.iter().enumerate().take(FAMILIES.len()) {
            tr.set_unit(f as u32);
            energy_probe(env, &profile, 4_000_000, tr, layers);
            let tw = Self::sim_tweaks(cfg);
            let at = SimTime::from_millis(cfg.injection_at.as_millis());
            let mut clean = crate::common::build(cfg.system, &profile, env, &tw)?;
            clean.set_observer(Box::new(CountingObserver::default()));
            run_until(&mut clean, at, tr, layers);
            let open = tr.begin("snap.save");
            let snap = clean.save_state()?;
            layers.add_ns("snap.save_ns_total", tr.end(open));
            layers.add("snap.saves", 1.0);
            let prefix = take_counts(clean.take_observer())?;

            for c in 0..cfg.campaigns {
                let mut fork = crate::common::build(cfg.system, &profile, env, &tw)?;
                let open = tr.begin("snap.restore");
                fork.restore_state(&snap)?;
                layers.add_ns("snap.restore_ns_total", tr.end(open));
                layers.add("snap.restores", 1.0);
                fork.set_observer(Box::new(CountingObserver::default()));
                fork.set_fault_injector(Box::new(AdversarialInjector::activating_at(
                    cfg.plan.clone(),
                    cfg.fault_seed(c),
                    at,
                )));
                run_to_end(&mut fork, tr, layers);
                let mut counts = prefix.clone();
                counts.add(&take_counts(fork.take_observer())?);
                layers.add_counts(&counts);
                reconcile(&counts, fork.metrics(), true)
                    .map_err(|e| format!("family {f} campaign {c}: {e}"))?;
            }
        }
        Ok(())
    }
}

fn take_counts(observer: Box<dyn Observer>) -> Result<Counts, String> {
    CountingObserver::take_from(observer)
        .map(|o| o.counts)
        .ok_or_else(|| "counting observer lost".to_string())
}
