//! The repository benchmark: end-to-end and per-layer metrics of the
//! Quetzal reproduction on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|faults|fleet|trace --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, at most two worker threads. After a warm-up pass, a run
//! repeats passes (a set-up, then a timed region running every unit
//! once) for `--seconds`, with a calibration-kernel sample after every
//! unit, and prints the metrics, scaled to the reference host speed,
//! then one JSON line. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` interleaves untraced and traced
//! passes and prints the per-layer metrics. `--digests` also prints
//! each unit's output digest, in the format of `golden.txt`. See
//! `NOTES.md` for the design.

mod alloc;
mod calib;
mod common;
mod layers;
mod observe;
mod spans;
mod stats;
mod workloads;

use layers::{Layers, PER_LAYER};
use spans::Tracer;
use stats::{median, peak_rss_mib, percentile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Pass, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Allocation counts of workloads with worker threads may differ by
/// one part in this many between runs of one seed.
const ALLOC_RACE_DIVISOR: u64 = 10_000;

/// Unit failures printed one per line before the rest are only counted.
const MAX_FAILURES_PRINTED: u64 = 10;

/// Passes every run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Output digests recorded for the default seed and a held-out seed.
const GOLDEN: &str = include_str!("../golden.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digests" {
            args.digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Golden unit digests for `(workload, seed)`, if recorded.
fn golden(workload: &str, seed: u64) -> Option<Vec<u64>> {
    let mut units = BTreeMap::new();
    for line in GOLDEN.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [w, s, u, d] = f[..] {
            if w == workload && s.parse() == Ok(seed) {
                let unit: usize = u.parse().ok()?;
                units.insert(unit, u64::from_str_radix(d, 16).ok()?);
            }
        }
    }
    (!units.is_empty()).then(|| units.into_values().collect())
}

/// Checks every pass's unit digests against the first pass (outputs
/// repeat exactly) and against the golden digests when recorded.
/// Returns `(attempted, failed)` and prints each failure.
fn check_units(passes: &[&Pass], golden: Option<&[u64]>) -> (u64, u64) {
    let first: Vec<u64> = passes[0].units.iter().map(|u| u.digest).collect();
    let (mut attempted, mut failed) = (0, 0);
    for (p, pass) in passes.iter().enumerate() {
        for (i, u) in pass.units.iter().enumerate() {
            attempted += 1;
            let why = if let Some(f) = &u.failure {
                Some(f.clone())
            } else if u.digest != first[i] {
                Some(format!(
                    "output digest {:016x} differs from pass 0",
                    u.digest
                ))
            } else {
                match golden {
                    Some(g) if g.get(i) != Some(&u.digest) => Some(format!(
                        "output digest {:016x} differs from golden {:016x}",
                        u.digest,
                        g.get(i).copied().unwrap_or(0)
                    )),
                    _ => None,
                }
            };
            if let Some(why) = why {
                failed += 1;
                if failed <= MAX_FAILURES_PRINTED {
                    eprintln!("unit failed: pass {p} unit {i}: {why}");
                }
            }
        }
        if golden.is_some_and(|g| g.len() != pass.units.len()) {
            failed += 1;
            eprintln!("unit count {} differs from golden", pass.units.len());
        }
    }
    if failed > MAX_FAILURES_PRINTED {
        eprintln!("... {failed} unit failures in all");
    }
    (attempted, failed)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn reference(w: &dyn Workload) -> bool {
    match w.reference_check() {
        Ok(what) => {
            println!("reference check: {what}");
            true
        }
        Err(e) => {
            eprintln!("reference check FAILED: {e}");
            false
        }
    }
}

fn untraced(args: &Args, w: &dyn Workload) -> ExitCode {
    let reference_ok = reference(w);
    let mut tr = Tracer::new(false);
    let mix = w.calibration();
    calib::start(mix);
    // The warm-up pass fills caches and the heap; its outputs are
    // checked, its timings are not used.
    let warm_up = w.pass(&mut tr, &mut Layers::default());
    let mut before = calib::take().last().copied().unwrap_or(mix.reference_s);
    let mut passes = Vec::new();
    let mut scale = Vec::new();
    let mut kernel = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        passes.push(w.pass(&mut tr, &mut Layers::default()));
        // A pass's timings scale by the mean of the samples taken after
        // each of its units and the one just before it.
        let samples = calib::take();
        let k = std::iter::once(before).chain(samples.iter().copied());
        scale.push(mix.scale(k.sum::<f64>() / (samples.len() + 1) as f64));
        before = samples.last().copied().unwrap_or(before);
        kernel.extend(samples);
    }
    let refs: Vec<&Pass> = std::iter::once(&warm_up).chain(&passes).collect();
    let g = golden(&args.workload, args.seed);
    let (attempted, failed) = check_units(&refs, g.as_deref());
    if args.digests {
        for (i, u) in passes[0].units.iter().enumerate() {
            println!(
                "digest: {} {} {i} {:016x}",
                args.workload, args.seed, u.digest
            );
        }
    }

    let scaled = || passes.iter().zip(&scale);
    let lat: Vec<f64> = scaled()
        .flat_map(|(p, s)| p.units.iter().map(move |u| u.ms * s))
        .collect();
    // Set-up is not scaled: it builds inputs and simulations (allocation
    // and scalar code) and did not follow the kernel as the timed
    // regions did.
    let setup_s = median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let hosts: Vec<f64> = scaled().map(|(p, s)| p.host_s * s).collect();
    let host_s = median(&hosts);
    let rate = median(
        &scaled()
            .map(|(p, s)| p.sim_s / (p.host_s * s))
            .collect::<Vec<_>>(),
    );
    let raw_host_s = median(&passes.iter().map(|p| p.host_s).collect::<Vec<_>>());
    let kernel_ms = median(&kernel) * 1e3;
    let p50 = percentile(&lat, 0.5);
    let p90 = percentile(&lat, 0.9);
    let rss = peak_rss_mib().unwrap_or(0.0);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let n = lat.len();

    println!(
        "workload {} seed {}: warm-up + {} passes, {n} units, golden digests {}",
        args.workload,
        args.seed,
        passes.len(),
        if g.is_some() {
            "checked"
        } else {
            "not recorded for this seed"
        }
    );
    println!(
        "  timings are scaled to the reference host speed: calibration kernel {kernel_ms:.4} ms \
         (median of {} samples; reference {:.4} ms), unscaled host_s {raw_host_s:.6} s",
        kernel.len(),
        mix.reference_s * 1e3
    );
    println!(
        "  setup_s           {setup_s:>14.6} s          median over {} passes of the fastest of {} set-ups",
        passes.len(),
        common::SETUP_REPEATS
    );
    println!(
        "  host_s            {host_s:>14.6} s          median of {} timed regions (p25 {:.6}, p75 {:.6})",
        passes.len(),
        percentile(&hosts, 0.25),
        percentile(&hosts, 0.75)
    );
    println!("  sim_s_per_host_s  {rate:>14.1} device-s/s");
    println!("  unit_p50_ms       {p50:>14.4} ms         n={n}");
    println!(
        "  unit_p90_ms       {p90:>14.4} ms         n={n}, {} beyond{}",
        n - (0.9 * n as f64).ceil() as usize,
        if n < 100 {
            " (fewer than 100 units: small-sample figure)"
        } else {
            ""
        }
    );
    println!("  peak_rss_mib      {rss:>14.2} MiB");
    println!("  failed_frac       {failed_frac:>14.6} ratio      {failed}/{attempted} units");

    let correct = reference_ok && failed == 0;
    print_result(
        correct,
        attempted,
        failed,
        &[
            ("setup_s", setup_s, "s"),
            ("host_s", host_s, "s"),
            ("sim_s_per_host_s", rate, "device-s/s"),
            ("unit_p50_ms", p50, "ms"),
            ("unit_p90_ms", p90, "ms"),
            ("peak_rss_mib", rss, "MiB"),
        ],
    );
    ExitCode::SUCCESS
}

fn traced(args: &Args, w: &dyn Workload) -> ExitCode {
    let mut ok = reference(w);
    let mut tr = Tracer::new(false);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    calib::start(w.calibration());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while traced.len() < 2 || Instant::now() < deadline {
        tr.set_enabled(false);
        plain.push(w.pass(&mut tr, &mut Layers::default()));
        tr.set_enabled(true);
        let mut l = Layers::default();
        traced.push(w.pass(&mut tr, &mut l));
        if let Err(e) = w.probe(&mut tr, &mut l) {
            eprintln!("benchmark error: layer probe: {e}");
            ok = false;
        }
        layers.push(l);
    }
    let all: Vec<&Pass> = plain.iter().chain(traced.iter()).collect();
    let (attempted, failed) = check_units(&all, golden(&args.workload, args.seed).as_deref());

    // Work counts repeat exactly between two runs of the same seed.
    let mut drift = Vec::new();
    for (key, v) in layers[0].counts() {
        let again = layers[1].get(key);
        if v != again {
            drift.push(format!("{key}: {v} then {again}"));
        }
    }
    let (a, b) = (plain[0].allocs, plain[1].allocs);
    if a != b {
        let what = format!("alloc.count: {a} then {b}");
        // std's channel and thread internals allocate a few blocks on
        // whichever worker wins a race, so runs on worker threads may
        // differ by a handful of allocations; nothing else may drift.
        if w.threaded() && a.abs_diff(b) * ALLOC_RACE_DIVISOR <= a {
            eprintln!("benchmark note: {what} (worker-thread race allowance)");
        } else {
            drift.push(what);
        }
    }
    for d in &drift {
        eprintln!("benchmark error: count drifted between runs of one seed: {d}");
    }

    // Timings: median over traced passes; counts: the first pass.
    let derived: Vec<BTreeMap<&str, f64>> = layers.iter().map(layers::derive).collect();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, unit) in PER_LAYER {
        let v = if matches!(*unit, "count" | "bytes") {
            derived[0].get(name).copied().unwrap_or(0.0)
        } else {
            median(
                &derived
                    .iter()
                    .filter_map(|d| d.get(name).copied())
                    .collect::<Vec<_>>(),
            )
        };
        values.insert(name, v);
    }
    let sim_s = plain[0].sim_s.max(f64::MIN_POSITIVE);
    values.insert("alloc.count_per_sim_s", plain[0].allocs as f64 / sim_s);
    values.insert("alloc.bytes_per_sim_s", plain[0].alloc_bytes as f64 / sim_s);
    let host = |ps: &[Pass]| median(&ps.iter().map(|p| p.host_s).collect::<Vec<_>>());
    values.insert("trace.overhead_frac", host(&traced) / host(&plain) - 1.0);
    values.insert("calib.kernel_ms", median(&calib::take()) * 1e3);

    println!(
        "workload {} seed {} (traced): {} untraced + {} traced passes, {attempted} units",
        args.workload,
        args.seed,
        plain.len(),
        traced.len()
    );
    for (name, unit) in PER_LAYER {
        println!("  {name:<28} {:>16.4} {unit}", values[name]);
    }
    println!("{}", tr.render_self_times());
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }

    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, values[name], *unit))
        .collect();
    print_result(
        ok && failed == 0 && drift.is_empty(),
        attempted,
        failed,
        &metrics,
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <sweep|faults|fleet|trace> --seed N --seconds S --trace 0|1 [--digests]");
            return ExitCode::from(2);
        }
    };
    let w = workloads::by_name(&args.workload, args.seed).expect("name validated by parse_args");
    if args.trace {
        traced(&args, w.as_ref())
    } else {
        untraced(&args, w.as_ref())
    }
}
