//! Kernel probes on a fitted session state, run at pool 1 and at pool
//! `nproc`. Outputs must be bit-identical between the two pool sizes
//! (the determinism contract). Flop counts are computed from array
//! sizes, not measured.

use sider_core::EdaSession;
use sider_linalg::{Matrix, SymEigen};
use sider_par::ThreadPool;
use sider_projection::{fastica_with, pca_directions_with, IcaOpts};
use sider_stats::Rng;
use std::time::Instant;

/// One kernel's timings at both pool sizes.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Metric stem (`maxent.sample`, …).
    pub name: &'static str,
    /// Median time at pool 1, µs.
    pub us_pool1: f64,
    /// Median time at pool `nproc`, µs.
    pub us_pool_n: f64,
    /// Floating-point operations, computed from array sizes.
    pub flops: f64,
    /// Bytes read and written, computed from array sizes.
    pub bytes: f64,
}

impl Probe {
    /// GFLOP/s at pool `nproc` (computed flops over measured time).
    pub fn gflops(&self) -> f64 {
        self.flops / (self.us_pool_n * 1e3)
    }
}

/// Everything the probes measured on one state.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Rows and columns of the probed dataset.
    pub shape: (usize, usize),
    /// Per-kernel timings.
    pub probes: Vec<Probe>,
    /// FastICA iterations and convergence on the whitened data.
    pub fastica_iters: usize,
    /// Whether FastICA converged.
    pub fastica_converged: bool,
    /// Kernels whose outputs differed between pool sizes (must be empty).
    pub mismatches: Vec<&'static str>,
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Median wall time of `reps` runs of `f` (µs) and the last output.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        out = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (
        crate::stats::median(&times).expect("at least one rep"),
        out.expect("at least one rep"),
    )
}

/// Probe `session`'s current state with `seed`-derived RNG streams.
pub fn run(session: &EdaSession, seed: u64, nproc: usize) -> Result<ProbeReport, String> {
    let pools = [ThreadPool::new(1), ThreadPool::new(nproc.max(1))];
    let data = session.data();
    let bg = session.background();
    let (n, d) = data.shape();
    let (nf, df) = (n as f64, d as f64);
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut probes = Vec::new();
    let mut mismatches = Vec::new();
    let reps = 5;

    let mut outputs = Vec::new();
    let mut times = [0.0; 2];
    for (k, pool) in pools.iter().enumerate() {
        let (t, m) = timed(reps, || bg.sample_with(&mut Rng::substream(seed, 71), pool));
        times[k] = t;
        outputs.push(bits(&m));
    }
    // Per row: d normals and one d×d matvec.
    probes.push(probe(
        "maxent.sample",
        times,
        2.0 * nf * df * df,
        8.0 * nf * df,
    ));
    if outputs[0] != outputs[1] {
        mismatches.push("maxent.sample");
    }

    let mut whitened = Vec::new();
    for (k, pool) in pools.iter().enumerate() {
        let (t, m) = timed(reps, || bg.whiten_with(data, pool));
        times[k] = t;
        whitened.push(m.map_err(|e| err(&e))?);
    }
    probes.push(probe(
        "maxent.whiten",
        times,
        2.0 * nf * df * df,
        16.0 * nf * df,
    ));
    if bits(&whitened[0]) != bits(&whitened[1]) {
        mismatches.push("maxent.whiten");
    }

    let mut moments = Vec::new();
    for (k, pool) in pools.iter().enumerate() {
        let (t, m) = timed(reps, || bg.whitened_second_moment_with(data, pool));
        times[k] = t;
        moments.push(m.map_err(|e| err(&e))?);
    }
    // Whitening matvec plus the upper-triangle Gram update per row.
    probes.push(probe(
        "maxent.moment",
        times,
        3.0 * nf * df * df,
        8.0 * (nf * df + df * df),
    ));
    if bits(&moments[0]) != bits(&moments[1]) {
        mismatches.push("maxent.moment");
    }

    // The eigensolver has no pool; both columns time the same call.
    let (t, eig) = timed(reps, || SymEigen::decompose(&moments[0]));
    eig.map_err(|e| err(&e))?;
    probes.push(probe(
        "linalg.eigen",
        [t, t],
        9.0 * df * df * df,
        16.0 * df * df,
    ));

    let mut pcas = Vec::new();
    for (k, pool) in pools.iter().enumerate() {
        let (t, p) = timed(reps, || pca_directions_with(&whitened[0], pool));
        times[k] = t;
        pcas.push(p.map_err(|e| err(&e))?);
    }
    probes.push(probe(
        "projection.pca",
        times,
        nf * df * df + 9.0 * df * df * df,
        8.0 * nf * df,
    ));
    if bits(&pcas[0].directions) != bits(&pcas[1].directions) {
        mismatches.push("projection.pca");
    }

    let y = session.whitened().map_err(|e| err(&e))?;
    let mut icas = Vec::new();
    for (k, pool) in pools.iter().enumerate() {
        let (t, r) = timed(1, || {
            fastica_with(&y, &IcaOpts::default(), &mut Rng::substream(seed, 72), pool)
        });
        times[k] = t;
        icas.push(r.map_err(|e| err(&e))?);
    }
    let iters = icas[0].iterations as f64;
    // Centering, covariance and whitening (≈3·n·d²) plus, per iteration,
    // the symmetric fixed-point update (≈4·n·d² with the nonlinearity).
    probes.push(probe(
        "projection.fastica",
        times,
        3.0 * nf * df * df + iters * 4.0 * nf * df * df,
        8.0 * nf * df * (2.0 + iters),
    ));
    if bits(&icas[0].directions) != bits(&icas[1].directions) {
        mismatches.push("projection.fastica");
    }
    Ok(ProbeReport {
        shape: (n, d),
        probes,
        fastica_iters: icas[0].iterations,
        fastica_converged: icas[0].converged,
        mismatches,
    })
}

fn probe(name: &'static str, times: [f64; 2], flops: f64, bytes: f64) -> Probe {
    Probe {
        name,
        us_pool1: times[0],
        us_pool_n: times[1],
        flops,
        bytes,
    }
}
