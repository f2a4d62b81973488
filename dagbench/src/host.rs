//! Host speed. On a shared virtual machine, other tenants change how fast
//! this one computes by tens of percent over minutes, which moves every
//! time a run measures by as much. Each run therefore also times a fixed
//! computation, the reference, between its operations, and reports its
//! times scaled to the host speed at which the reference takes
//! [`REFERENCE_MS`]: a time `t` measured while the reference took a median
//! of `r` ms is reported as `t * REFERENCE_MS / r`.
//!
//! The reference is this file's own code, so no change to the program
//! changes it. It formats, parses and groups CSV-like text, the kind of
//! work the trace and graph layers do, and runs a dense power iteration,
//! the kind of work the WL kernel and clustering do, with one copy on
//! every core at once, as the program's parallel stages run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::harness::Rng;

/// The reference's time, in ms, at the host speed every reported time is
/// scaled to: about its median on the 2-vCPU host of the defining runs.
pub const REFERENCE_MS: f64 = 75.0;

/// Time one run of the reference, in ms.
pub fn reference_ms() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = Instant::now();
    std::thread::scope(|s| {
        for core in 0..cores {
            s.spawn(move || black_box(work(black_box(core as u64))));
        }
    });
    start.elapsed().as_secs_f64() * 1e3
}

fn work(seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let mut text = String::with_capacity(4 << 20);
    for i in 0..50_000 {
        let _ = writeln!(
            text,
            "task_{},{},j_{},{i},{:.3}",
            rng.below(1_000),
            rng.below(50),
            rng.below(20_000),
            rng.unit() * 100.0
        );
    }
    let mut jobs: HashMap<&str, Vec<u32>> = HashMap::new();
    for line in text.lines() {
        let mut fields = line.split(',').skip(1);
        let instances = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
        if let Some(job) = fields.next() {
            jobs.entry(job).or_default().push(instances);
        }
    }
    let mut sum = 0u64;
    for tasks in jobs.values_mut() {
        tasks.sort_unstable();
        sum = sum.wrapping_add(u64::from(tasks[tasks.len() / 2]));
    }

    const N: usize = 256;
    let m: Vec<f64> = (0..N * N).map(|_| rng.unit()).collect();
    let mut x = vec![1.0f64; N];
    for _ in 0..500 {
        let y: Vec<f64> = m
            .chunks_exact(N)
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        x = y.into_iter().map(|v| v / norm).collect();
    }
    sum ^ x[0].to_bits()
}
