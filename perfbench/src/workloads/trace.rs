//! `trace`: single-device Crowded runs as under `qz trace` and
//! `qz run --snapshot-ring`: a recording observer exported as JSONL and
//! CSV, 1 s telemetry, and a snapshot ring round-tripped through
//! `qz-snap/v1` and restored. One unit is one traced run, cut after its
//! first `WINDOW_S` simulated seconds. A fixed window keeps the work
//! per unit (events, telemetry rows, snapshot sizes) from swinging with
//! the seed's random event gaps.

use super::{run_unit, Pass, UnitOut, Workload};
use crate::calib;
use crate::common::{
    build, checked_build, conservation, core_probe, energy_probe, fastest_setup, generate,
    run_until, sub_seed, tweaks, Timer,
};
use crate::layers::Layers;
use crate::observe::{reconcile, CountingObserver};
use crate::spans::Tracer;
use crate::stats::digest;
use qz_app::{apollo4, DeviceProfile, SimTweaks};
use qz_baselines::BaselineKind;
use qz_obs::RecordingObserver;
use qz_sim::{EngineKind, SimState, Simulation};
use qz_traces::{EnvironmentKind, SensingEnvironment};
use qz_types::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

const RUNS: usize = 8;
/// Enough events that the scene outlasts the window.
const EVENTS: usize = 20;
const WINDOW_S: u64 = 300;
const SYSTEM: BaselineKind = BaselineKind::Quetzal;
/// Snapshot ring: one capture every `STRIDE_S` simulated seconds,
/// keeping the newest `RING` (the `qz run --snapshot-ring` defaults).
const STRIDE_S: u64 = 10;
const RING: usize = 64;

pub struct Trace {
    pub seed: u64,
}

/// Everything one traced run produces.
struct Outputs {
    metrics: qz_sim::Metrics,
    /// Simulated seconds covered.
    sim_s: f64,
    jsonl: Vec<u8>,
    csv: Vec<u8>,
    telemetry_csv: Vec<u8>,
}

impl Outputs {
    fn digest(&self) -> u64 {
        digest(&[
            format!("{:?}", self.metrics).as_bytes(),
            &self.jsonl,
            &self.csv,
            &self.telemetry_csv,
        ])
    }
}

impl Trace {
    fn env(&self, run: usize, tr: &mut Tracer, layers: &mut Layers) -> SensingEnvironment {
        generate(
            EnvironmentKind::Crowded,
            EVENTS,
            sub_seed(self.seed, 100 + run as u64),
            tr,
            layers,
        )
    }

    fn tweaks(&self, run: usize, engine: EngineKind) -> SimTweaks {
        SimTweaks {
            engine,
            telemetry_period: Some(SimDuration::from_secs(1)),
            snapshot_period: Some(SimDuration::from_secs(1)),
            ..tweaks(sub_seed(self.seed, 1000 + run as u64))
        }
    }
}

impl Trace {
    /// Every run's environment and simulator knobs.
    fn inputs(
        &self,
        tr: &mut Tracer,
        layers: &mut Layers,
    ) -> (Vec<SensingEnvironment>, Vec<SimTweaks>) {
        let envs = (0..RUNS).map(|r| self.env(r, tr, layers)).collect();
        let tws = (0..RUNS)
            .map(|r| self.tweaks(r, EngineKind::FastForward))
            .collect();
        (envs, tws)
    }
}

/// Every run's simulation.
fn build_sims<'a>(
    envs: &'a [SensingEnvironment],
    tws: &[SimTweaks],
    profile: &DeviceProfile,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Vec<Result<Simulation<'a>, String>> {
    envs.iter()
        .zip(tws)
        .map(|(env, tw)| checked_build(SYSTEM, profile, env, tw, tr, layers))
        .collect()
}

/// Runs one traced unit on an assembled simulation.
fn traced_run(
    mut sim: Simulation<'_>,
    profile: &DeviceProfile,
    env: &SensingEnvironment,
    tw: &SimTweaks,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<Outputs, String> {
    let telemetry = SimDuration::from_secs(1);
    sim.set_observer(Box::new(RecordingObserver::new()));
    sim.record_telemetry(telemetry);

    // The ring: capture at t=0 and at every stride boundary before the
    // window ends.
    let window = SimTime::from_millis(WINDOW_S * 1000);
    let open = tr.begin("sim.run");
    let mut ring: VecDeque<SimState> = VecDeque::new();
    let mut next = SimTime::ZERO;
    while next < window {
        let open = tr.begin("snap.save");
        let state = sim.save_state()?;
        layers.add_ns("snap.save_ns_total", tr.end(open));
        layers.add("snap.saves", 1.0);
        if ring.len() == RING {
            ring.pop_front();
        }
        ring.push_back(state);
        next = (next + SimDuration::from_secs(STRIDE_S)).min(window);
        if !run_until(&mut sim, next, tr, layers) {
            break;
        }
    }
    tr.end(open);
    if tr.enabled() {
        layers.add_horizon(sim.horizon_stats());
    }
    let metrics = sim.metrics().clone();

    let mut observer = sim.take_observer();
    let events = qz_obs::take_recorded(observer.as_mut()).ok_or("recording observer lost")?;
    let open = tr.begin("obs.export");
    let mut jsonl = Vec::new();
    let mut csv = Vec::new();
    qz_obs::export::write_jsonl(&mut jsonl, &events).map_err(|e| e.to_string())?;
    qz_obs::export::write_csv(&mut csv, &events).map_err(|e| e.to_string())?;
    layers.add_ns("obs.export_ns_total", tr.end(open));
    layers.add("obs.events", events.len() as f64);
    layers.add("obs.bytes", (jsonl.len() + csv.len()) as f64);
    let mut telemetry_csv = Vec::new();
    sim.telemetry()
        .ok_or("telemetry recorder lost")?
        .write_csv(&mut telemetry_csv)
        .map_err(|e| e.to_string())?;

    // Encode the whole ring as qz-snap/v1; decode its newest snapshot
    // and resume from it: the resumed run must reach the window end
    // with the same metrics. (Decoding costs far more than encoding and grows with
    // the telemetry a snapshot carries, so only the restore point is
    // decoded.)
    let mut newest = None;
    for state in &ring {
        let open = tr.begin("snap.encode");
        let text = qz_snap::to_json(state);
        layers.add_ns("snap.encode_ns_total", tr.end(open));
        layers.add("snap.encodes", 1.0);
        layers.add("snap.bytes_total", text.len() as f64);
        newest = Some((state, text));
    }
    let (state, text) = newest.ok_or("empty snapshot ring")?;
    let spec = sim.runtime().spec().clone();
    let open = tr.begin("snap.decode");
    let decoded = qz_snap::from_json(&text, &spec);
    layers.add_ns("snap.decode_ns_total", tr.end(open));
    layers.add("snap.decodes", 1.0);
    let newest = decoded?;
    if &newest != state {
        return Err(format!(
            "snapshot at t={}ms changed in round trip",
            state.now.as_millis()
        ));
    }
    let mut resumed = build(SYSTEM, profile, env, tw)?;
    resumed.record_telemetry(telemetry);
    let open = tr.begin("snap.restore");
    resumed.restore_state(&newest)?;
    layers.add_ns("snap.restore_ns_total", tr.end(open));
    layers.add("snap.restores", 1.0);
    resumed.step_until(window);
    if resumed.metrics() != &metrics {
        return Err("run resumed from the ring finished with different metrics".into());
    }

    let counts = CountingObserver::from_events(&events).counts;
    let finished = sim.is_done();
    reconcile(&counts, &metrics, finished)?;
    conservation(&metrics, finished)?;
    if tr.enabled() {
        layers.add_counts(&counts);
    }
    Ok(Outputs {
        sim_s: sim.time().as_seconds().value(),
        metrics,
        jsonl,
        csv,
        telemetry_csv,
    })
}

impl Workload for Trace {
    fn pass(&self, tr: &mut Tracer, layers: &mut Layers) -> Pass {
        let profile = apollo4();
        let setup = Instant::now();
        let (envs, tws) = self.inputs(tr, layers);
        let sims = build_sims(&envs, &tws, &profile, tr, layers);
        let setup_s = fastest_setup(setup.elapsed().as_secs_f64(), tr, |tr, layers| {
            let (envs, tws) = self.inputs(tr, layers);
            black_box(build_sims(&envs, &tws, &profile, tr, layers));
        });

        let timer = Timer::start();
        let mut results = Vec::new();
        for (r, sim) in sims.into_iter().enumerate() {
            tr.set_unit(r as u32);
            results.push(run_unit(|| {
                traced_run(sim?, &profile, &envs[r], &tws[r], tr, layers)
            }));
        }
        let (host_s, allocs, alloc_bytes) = timer.stop();

        let mut sim_s = 0.0;
        let units = results
            .into_iter()
            .map(|(ms, r)| match r {
                Ok(out) => {
                    sim_s += out.sim_s;
                    UnitOut {
                        ms,
                        digest: out.digest(),
                        failure: None,
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

    /// About 85 % of a pass is `qz_snap::from_json`: UTF-8 scans of
    /// the snapshot text and a branchy parse.
    fn calibration(&self) -> calib::Mix {
        calib::Mix {
            scans: 600,
            sorts: 12,
            chase_steps: 0,
            chain_steps: 0,
            reference_s: 0.0028,
            elasticity: 1.0,
        }
    }

    /// The first run on the tick engine must produce the same metrics,
    /// JSONL, CSV and telemetry bytes as on fast-forward.
    fn reference_check(&self) -> Result<String, String> {
        let profile = apollo4();
        let (mut tr, mut layers) = (Tracer::new(false), Layers::default());
        let env = self.env(0, &mut tr, &mut layers);
        let mut run = |engine| {
            let tw = self.tweaks(0, engine);
            let sim = build(SYSTEM, &profile, &env, &tw)?;
            traced_run(sim, &profile, &env, &tw, &mut tr, &mut layers).map(|o| o.digest())
        };
        if run(EngineKind::Tick)? != run(EngineKind::FastForward)? {
            return Err("fast-forward trace outputs differ from the tick engine".into());
        }
        Ok("tick engine == fast-forward on metrics, JSONL, CSV and telemetry bytes".into())
    }

    fn probe(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
        let profile = apollo4();
        let env = self.env(0, &mut Tracer::new(false), &mut Layers::default());
        energy_probe(&env, &profile, 4_000_000, tr, layers);
        let mut scratch = Layers::default();
        core_probe(
            SYSTEM,
            &profile,
            &env,
            &self.tweaks(0, EngineKind::FastForward),
            tr,
            &mut scratch,
        )?;
        for key in ["core.replay_calls", "core.replay_ns_total"] {
            layers.add(key, scratch.get(key));
        }
        Ok(())
    }
}
