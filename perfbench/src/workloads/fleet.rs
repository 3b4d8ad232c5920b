//! `fleet`: an event-horizon fleet of 2000 devices on 32 sharded
//! gateways, 30 s capture period, 50 ms epochs, two threads. One unit
//! is one fleet run plus its JSON report.

use super::{run_unit, Pass, UnitOut, Workload};
use crate::calib;
use crate::common::{
    build, conservation, energy_probe, fastest_setup, generate, sub_seed, tweaks, Timer,
};
use crate::layers::Layers;
use crate::spans::Tracer;
use crate::stats::digest;
use qz_fleet::scheduler::FleetSchedulerKind;
use qz_fleet::{Executor, FleetConfig};
use qz_types::SimDuration;
use std::hint::black_box;
use std::time::Instant;

const DEVICES: usize = 2000;
const EVENTS: usize = 4;
const GATEWAYS: usize = 32;
const THREADS: usize = 2;

pub struct Fleet {
    pub seed: u64,
}

impl Fleet {
    fn config(&self, devices: usize, gateways: usize) -> FleetConfig {
        let mut cfg = FleetConfig {
            devices,
            events: EVENTS,
            fleet_seed: sub_seed(self.seed, 100),
            epoch: SimDuration::from_millis(50),
            tweaks: tweaks(0),
            scheduler: FleetSchedulerKind::EventHorizon,
            gateways,
            ..FleetConfig::default()
        };
        cfg.tweaks.capture_period = SimDuration::from_secs(30);
        cfg
    }
}

/// The fleet's preflight, then every device's environment generation
/// and simulation assembly through the same public calls `run_fleet`
/// makes before its first tick: the config, or why it cannot run.
fn assemble<'a>(
    cfg: &'a FleetConfig,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<&'a FleetConfig, String> {
    let open = tr.begin("check.preflight");
    let preflight = qz_fleet::preflight(cfg);
    layers.add("check.preflight_s", tr.end(open) as f64 / 1e9);
    let mut ready = if preflight.has_errors() {
        Err(format!(
            "fleet preflight failed: {}",
            preflight.render_text()
        ))
    } else {
        Ok(cfg)
    };
    for d in 0..cfg.devices {
        let env = generate(
            cfg.env_for(d),
            cfg.events,
            cfg.env_seed(d as u64),
            tr,
            layers,
        );
        let mut tw = cfg.tweaks.clone();
        tw.seed = cfg.sim_seed(d as u64);
        let open = tr.begin("app.build");
        let built = build(cfg.system, &cfg.profile, &env, &tw);
        layers.add("app.build_s", tr.end(open) as f64 / 1e9);
        if let (Err(e), Ok(_)) = (built, &ready) {
            ready = Err(format!("device {d}: {e}"));
        }
    }
    ready
}

impl Workload for Fleet {
    /// Set-up: the fleet config and its preflight, then every device's
    /// environment generation and simulation assembly through the same
    /// public calls `run_fleet` makes before its first tick.
    fn pass(&self, tr: &mut Tracer, layers: &mut Layers) -> Pass {
        let setup = Instant::now();
        let cfg = self.config(DEVICES, GATEWAYS);
        let ready = assemble(&cfg, tr, layers);
        let setup_s = fastest_setup(setup.elapsed().as_secs_f64(), tr, |tr, layers| {
            let cfg = self.config(DEVICES, GATEWAYS);
            black_box(assemble(&cfg, tr, layers).is_ok());
        });

        let timer = Timer::start();
        tr.set_unit(0);
        let (ms, result) = run_unit(|| {
            let cfg = ready?;
            let open = tr.begin("fleet.run");
            let report = if tr.enabled() {
                qz_fleet::run_fleet_profiled(cfg, Executor::new(THREADS)).map(|(r, p)| {
                    layers.add_horizon(&p.horizon);
                    r
                })
            } else {
                qz_fleet::run_fleet(cfg, Executor::new(THREADS))
            };
            layers.add("fleet.run_s", tr.end(open) as f64 / 1e9);
            let report = report.map_err(|e| e.to_string())?;
            let open = tr.begin("fleet.report_json");
            let json = report.to_json();
            layers.add_ns("fleet.report_json_ns_total", tr.end(open));
            Ok((report, json))
        });
        let (host_s, allocs, alloc_bytes) = timer.stop();

        let mut sim_s = 0.0;
        let unit = match result {
            Ok((report, json)) => {
                layers.add("fleet.reports", 1.0);
                layers.add("fleet.report_bytes", json.len() as f64);
                layers.add("fleet.tx_total", report.channel.total_tx as f64);
                layers.add("fleet.collided_tx", report.channel.collided_tx as f64);
                let mut failure = (report.devices.len() != cfg.devices)
                    .then(|| format!("report has {} devices", report.devices.len()));
                for dev in &report.devices {
                    sim_s += dev.metrics.sim_time.as_seconds().value();
                    if let Err(e) = conservation(&dev.metrics, true) {
                        failure.get_or_insert(format!("device {}: {e}", dev.device));
                    }
                }
                UnitOut {
                    ms,
                    digest: digest(&[json.as_bytes()]),
                    failure,
                }
            }
            Err(e) => UnitOut::failed(ms, e),
        };
        Pass {
            setup_s,
            host_s,
            sim_s,
            allocs,
            alloc_bytes,
            units: vec![unit],
        }
    }

    /// A 64-device slice of the fleet config on the epoch-barrier
    /// reference scheduler must produce the same report bytes as on the
    /// event horizon.
    fn reference_check(&self) -> Result<String, String> {
        let mut cfg = self.config(64, 4);
        let run = |cfg: &FleetConfig| {
            qz_fleet::run_fleet(cfg, Executor::new(THREADS))
                .map(|r| r.to_json())
                .map_err(|e| e.to_string())
        };
        let horizon = run(&cfg)?;
        cfg.scheduler = FleetSchedulerKind::EpochBarrier;
        if run(&cfg)? != horizon {
            return Err("event-horizon report differs from the epoch barrier".into());
        }
        Ok("epoch-barrier == event-horizon on a 64-device slice".into())
    }

    fn threaded(&self) -> bool {
        THREADS > 1
    }

    /// A pass is one unit on two worker threads, so samples fall only
    /// between passes, too far apart to follow the host; the chain,
    /// which hardly slows, adds the least noise.
    fn calibration(&self) -> calib::Mix {
        calib::Mix {
            scans: 0,
            sorts: 0,
            chase_steps: 0,
            chain_steps: 130_000,
            reference_s: 0.0029,
            elasticity: 1.0,
        }
    }

    fn probe(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
        let cfg = self.config(DEVICES, GATEWAYS);
        let env = generate(
            cfg.env_for(0),
            cfg.events,
            cfg.env_seed(0),
            &mut Tracer::new(false),
            &mut Layers::default(),
        );
        energy_probe(&env, &cfg.profile, 4_000_000, tr, layers);
        Ok(())
    }
}
