//! The calibration kernel: a short, fixed piece of benchmark-owned work
//! run after every unit, so that every timing can be scaled to the
//! speed the reference host runs at when it is quiet.
//!
//! The host is shared: its other tenants change how fast a core runs
//! the workloads by up to half, within seconds, and a whole run can
//! slow or speed with them. How much a piece of code slows depends on
//! what it does, so each workload names a [`Mix`] of kernel parts that
//! slows as it does. The kernel is sampled between units, so its
//! samples are spread over the pass they scale. A program change does
//! not touch the kernel, so a slower program still reads slower by the
//! full amount.
//!
//! The sampler lives on the thread that runs the units (the main
//! thread). Its time is kept out of every timing: `run_unit` times a
//! unit before sampling, and `Timer` subtracts [`spent_s`].

use std::cell::RefCell;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each kernel part in one sample, the sample's median
/// time on the reference host (2-core Intel Xeon VM), and how strongly
/// the workload follows it. Timings are multiplied by
/// `(reference_s / measured)^elasticity`.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// UTF-8 validations of the rest of a 48 KiB JSON text from
    /// successive offsets, as `qz_snap::from_json` does while it
    /// parses: streaming reads.
    pub scans: usize,
    /// Sorts of the same 4096 pseudo-random words: branches the
    /// predictor learns when the core is its own.
    pub sorts: usize,
    /// Steps of a dependent pointer chase through a buffer a little
    /// larger than one core's L2 cache: cache misses.
    pub chase_steps: usize,
    /// Steps of a dependent floating-point chain, like the energy
    /// integrator: latency-bound work that stays in registers.
    pub chain_steps: usize,
    pub reference_s: f64,
    /// How far the workload's time moves, in logs, per unit move of
    /// the kernel's: 1 where the kernel does the workload's hot loop,
    /// less where the kernel swings wider than the workload.
    pub elasticity: f64,
}

impl Mix {
    /// The factor that scales a timing taken while the kernel's
    /// samples averaged `kernel_s`.
    pub fn scale(&self, kernel_s: f64) -> f64 {
        (self.reference_s / kernel_s).powf(self.elasticity)
    }
}

/// Bytes of JSON text to scan.
const SCAN_BYTES: usize = 48 << 10;
/// Words to sort.
const SORT_WORDS: usize = 4096;
/// Pointer-chase slots (4 bytes each: 2.5 MiB).
const CHASE_SLOTS: usize = 640 << 10;

struct Sampler {
    mix: Mix,
    /// The kernel's data, built once: the kernel allocates nothing
    /// while the workload runs.
    text: String,
    words: Vec<u32>,
    sorted: Vec<u32>,
    next: Vec<u32>,
    at: u32,
    samples: Vec<f64>,
    spent_s: f64,
}

thread_local! {
    static SAMPLER: RefCell<Option<Sampler>> = const { RefCell::new(None) };
}

/// Starts sampling `mix` after every unit on this thread.
pub fn start(mix: Mix) {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let words: Vec<u32> = (0..SORT_WORDS).map(|_| xorshift(&mut x) as u32).collect();
    let next = if mix.chase_steps > 0 {
        cycle(CHASE_SLOTS)
    } else {
        Vec::new()
    };
    SAMPLER.with(|s| {
        *s.borrow_mut() = Some(Sampler {
            mix,
            text: json_text(),
            sorted: words.clone(),
            words,
            next,
            at: 0,
            samples: Vec::with_capacity(1 << 16),
            spent_s: 0.0,
        });
    });
}

/// Runs one kernel sample, if sampling has started on this thread.
pub fn sample() {
    SAMPLER.with(|s| {
        if let Some(s) = s.borrow_mut().as_mut() {
            let t0 = Instant::now();
            black_box(scan(&s.text, s.mix.scans));
            for _ in 0..s.mix.sorts {
                s.sorted.copy_from_slice(&s.words);
                s.sorted.sort_unstable_by(|a, b| black_box(a).cmp(b));
                black_box(&s.sorted);
            }
            s.at = chase(&s.next, s.at, s.mix.chase_steps);
            black_box(chain(s.mix.chain_steps));
            let secs = t0.elapsed().as_secs_f64();
            s.samples.push(secs);
            s.spent_s += secs;
        }
    });
}

/// The samples (seconds) taken since the last call. The buffer keeps
/// its capacity, so sampling does not allocate in a timed region.
pub fn take() -> Vec<f64> {
    SAMPLER.with(|s| {
        s.borrow_mut().as_mut().map_or_else(Vec::new, |s| {
            let out = s.samples.clone();
            s.samples.clear();
            out
        })
    })
}

/// Seconds spent in samples on this thread so far.
pub fn spent_s() -> f64 {
    SAMPLER.with(|s| s.borrow().as_ref().map_or(0.0, |s| s.spent_s))
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// ASCII JSON records, `SCAN_BYTES` long.
fn json_text() -> String {
    let mut text = String::with_capacity(SCAN_BYTES + 64);
    let mut i = 0u64;
    while text.len() < SCAN_BYTES {
        let v = i as f64 * 0.123_456_789;
        write!(
            text,
            "{{\"t\":\"{}\",\"v\":{v},\"bits\":\"{}\"}},",
            i * 1000,
            v.to_bits()
        )
        .expect("writing to a String cannot fail");
        i += 1;
    }
    text.truncate(SCAN_BYTES);
    text
}

/// Validates the text's suffix from `reps` successive offsets.
fn scan(text: &str, reps: usize) -> usize {
    let bytes = text.as_bytes();
    let mut ok = 0;
    for i in 0..reps {
        let from = (i * 7) % 256;
        ok += usize::from(std::str::from_utf8(black_box(&bytes[from..])).is_ok());
    }
    ok
}

/// A single cycle through `n` slots in a fixed pseudo-random order
/// (Sattolo's shuffle), so every step of a chase is a dependent load
/// the prefetcher cannot guess.
fn cycle(n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for i in (1..n).rev() {
        order.swap(i, (xorshift(&mut x) % i as u64) as usize);
    }
    let mut next = vec![0u32; n];
    for i in 0..n {
        next[order[i] as usize] = order[(i + 1) % n];
    }
    next
}

/// Follows the cycle `steps` steps from `at`; returns where it
/// stopped, so the next sample goes on from there.
fn chase(next: &[u32], mut at: u32, steps: usize) -> u32 {
    for _ in 0..steps {
        at = next[black_box(at) as usize];
    }
    at
}

/// A capacitor-like integrator: each step depends on the last.
fn chain(steps: usize) -> u64 {
    let (mut v, mut e) = (1.0f64, 0.5f64);
    for i in 0..steps {
        let p = black_box(0.003) * (1.0 + (i & 7) as f64 * 0.01);
        e = (e + p * 0.001 - v * 1e-6).clamp(0.0, 10.0);
        v = (2.0 * e / 0.01).sqrt();
    }
    v.to_bits()
}
