//! FastICA — Hyvärinen's fixed-point independent component analysis.
//!
//! The paper uses "the FastICA algorithm \[6\] with log-cosh G function as a
//! default method to find non-Gaussian directions" in the whitened data.
//! This is a from-scratch implementation of exactly that one path, the
//! defaults of the reference `fastICA` R package the paper used: parallel
//! (symmetric) decorrelation with `G(u) = log cosh u`, α = 1.
//!
//! Pipeline:
//! 1. center columns;
//! 2. whiten internally via PCA to unit covariance (dropping null
//!    directions — the whitened SIDER data can be rank-deficient when
//!    constraints collapse directions);
//! 3. fixed-point iteration `w ← E[z·g(wᵀz)] − E[g′(wᵀz)]·w` with
//!    symmetric decorrelation `W ← (WWᵀ)^{-1/2} W`, for at most 200
//!    iterations; a run that has not converged by then returns its last
//!    iterate with `converged == false`, as R does;
//! 4. map the unmixing directions back to the input space and score each
//!    component by the signed negentropy proxy `E[G(s)] − E[G(ν)]`,
//!    ordered by [`IcaOpts::order`] (by absolute value by default, like
//!    the paper's Table I).

use crate::error::ProjectionError;
use crate::Result;
use sider_linalg::{vector, Matrix, SymEigen};
use sider_par::ThreadPool;
use sider_stats::descriptive::covariance_with;
use sider_stats::gaussianity::{g_and_g_prime, negentropy_offset, standardize_inplace};
use sider_stats::Rng;

/// How to order the extracted components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComponentOrder {
    /// By `|score|` descending — the paper's Table I ordering (default).
    #[default]
    AbsoluteDesc,
    /// By signed score descending: this puts **sub-Gaussian** (multi-modal
    /// / cluster) directions first and heavy-tailed outlier directions
    /// last. Useful when hunting cluster structure in data whose strongest
    /// non-Gaussian signal is outliers (e.g. the segmentation use case,
    /// §IV-C).
    SignedDesc,
}

/// Maximum fixed-point iterations per run.
const MAX_ITER: usize = 200;
/// Convergence tolerance on `1 − |⟨w_new, w_old⟩|`, for every direction.
const TOL: f64 = 1e-6;
/// Relative eigenvalue threshold below which directions are treated as
/// null and dropped during internal whitening.
const RANK_RTOL: f64 = 1e-9;

/// Options for [`fastica`].
#[derive(Debug, Clone)]
pub struct IcaOpts {
    /// Number of components to extract (`None` = numerical rank of the data).
    pub n_components: Option<usize>,
    /// Component ordering.
    pub order: ComponentOrder,
    /// Independent random initializations of the fixed-point iteration;
    /// the run with the largest total `|negentropy|` wins (ties break
    /// toward the earlier restart, so selection is deterministic). FastICA
    /// converges to a local optimum of a non-convex contrast, so restarts
    /// buy robustness; with [`fastica_with`] they execute in parallel.
    /// `1` (the default) reproduces the single-run behavior exactly.
    pub restarts: usize,
}

impl Default for IcaOpts {
    fn default() -> Self {
        IcaOpts {
            n_components: None,
            order: ComponentOrder::AbsoluteDesc,
            restarts: 1,
        }
    }
}

/// Result of a FastICA run.
#[derive(Debug, Clone)]
pub struct IcaResult {
    /// Unmixing directions in the *input* space, unit rows (`k × d`),
    /// sorted as [`IcaOpts::order`] says.
    pub directions: Matrix,
    /// Signed negentropy scores per component (same order).
    pub scores: Vec<f64>,
    /// Standardized source estimates (`n × k`, same order).
    pub sources: Matrix,
    /// Whether the fixed-point iteration converged within 200 iterations.
    pub converged: bool,
    /// Iterations used (at most 200).
    pub iterations: usize,
}

/// Run FastICA on the rows of `y`.
pub fn fastica(y: &Matrix, opts: &IcaOpts, rng: &mut Rng) -> Result<IcaResult> {
    fastica_with(y, opts, rng, &ThreadPool::serial())
}

/// [`fastica`] with the heavy stages distributed over `pool`: covariance
/// accumulation and the whitening product parallelize over row chunks
/// (bit-identical at any pool size), and when [`IcaOpts::restarts`] > 1
/// the independent fixed-point runs execute concurrently, each on its own
/// seeded substream so results never depend on scheduling.
pub fn fastica_with(
    y: &Matrix,
    opts: &IcaOpts,
    rng: &mut Rng,
    pool: &ThreadPool,
) -> Result<IcaResult> {
    let (n, d) = y.shape();
    if n == 0 || d == 0 {
        return Err(ProjectionError::EmptyData);
    }
    // 1. Center.
    let means = y.col_means();
    let x = y.center_rows(&means);

    // 2. Whiten: eigen of covariance, keep rank-supported directions.
    let cov = covariance_with(&x, pool);
    let eig = SymEigen::decompose(&cov)?;
    let ev_max = eig.values.first().copied().unwrap_or(0.0).max(0.0);
    let mut keep: Vec<usize> = Vec::new();
    for (k, &ev) in eig.values.iter().enumerate() {
        if ev > RANK_RTOL * ev_max && ev > 1e-300 {
            keep.push(k);
        }
    }
    let rank = keep.len();
    let k_req = opts.n_components.unwrap_or(rank);
    if rank == 0 || k_req == 0 {
        return Err(ProjectionError::RankDeficient {
            rank,
            requested: k_req.max(1),
        });
    }
    if k_req > rank {
        return Err(ProjectionError::RankDeficient {
            rank,
            requested: k_req,
        });
    }
    let k = k_req;
    // Whitening matrix K (rank × d): z = K (x − μ) has identity covariance.
    let mut kmat = Matrix::zeros(rank, d);
    for (row, &idx) in keep.iter().enumerate() {
        let col = eig.vectors.col(idx);
        let scale = 1.0 / eig.values[idx].sqrt();
        for j in 0..d {
            kmat[(row, j)] = scale * col[j];
        }
    }
    let z = x.matmul_with(&kmat.transpose(), pool); // n × rank

    // 3–4. Fixed-point iteration + scoring, once per restart. A single
    // restart consumes the caller's generator directly (exactly the
    // pre-restart behavior); multiple restarts draw one seed each from the
    // caller's stream up front and run on independent generators, so the
    // winning result depends only on the seeds — never on scheduling.
    if opts.restarts <= 1 {
        return run_restart(&z, &kmat, k, opts.order, rng);
    }
    let seeds: Vec<u64> = (0..opts.restarts).map(|_| rng.next_u64()).collect();
    let runs = pool.par_map(&seeds, |&seed| {
        run_restart(&z, &kmat, k, opts.order, &mut Rng::seed_from_u64(seed))
    });
    best_restart(runs)
}

/// The winner among restart runs, given in seed order: the run with the
/// largest total `|score|`, ties going to the earlier run. Restarts exist
/// for robustness: a failed run (e.g. a singular decorrelation from one
/// unlucky start) is simply out of the running, and the first error
/// surfaces only when *every* run failed.
fn best_restart(runs: Vec<Result<IcaResult>>) -> Result<IcaResult> {
    let mut best: Option<IcaResult> = None;
    let mut first_err: Option<ProjectionError> = None;
    for run in runs {
        match run {
            Ok(run) => {
                let better = match &best {
                    None => true,
                    Some(b) => total_abs_score(&run) > total_abs_score(b),
                };
                if better {
                    best = Some(run);
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match best {
        Some(best) => Ok(best),
        None => Err(first_err.expect("restarts >= 1 run")),
    }
}

/// Total `|negentropy|` across components — the restart-selection
/// objective (larger = stronger non-Gaussian structure captured).
fn total_abs_score(r: &IcaResult) -> f64 {
    r.scores.iter().map(|s| s.abs()).sum()
}

/// One complete fixed-point run (steps 3–4 of [`fastica`]): iterate from a
/// random orthonormal start, then build sources, input-space directions
/// and scores.
fn run_restart(
    z: &Matrix,
    kmat: &Matrix,
    k: usize,
    order: ComponentOrder,
    rng: &mut Rng,
) -> Result<IcaResult> {
    let n = z.rows();
    let d = kmat.cols();

    // 3. Fixed-point iteration in the whitened space.
    let (w, converged, iterations) = symmetric_iteration(z, k, rng)?;

    // 4. Sources, input-space directions, scores.
    let mut sources = z.matmul(&w.transpose()); // n × k
    let mut scored: Vec<(usize, f64)> = Vec::with_capacity(k);
    for c in 0..k {
        let mut s = sources.col(c);
        standardize_inplace(&mut s);
        sources.set_col(c, &s);
        scored.push((c, negentropy_offset(&s)));
    }
    match order {
        ComponentOrder::AbsoluteDesc => scored.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        }),
        ComponentOrder::SignedDesc => {
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
        }
    }

    let w_input = w.matmul(kmat); // k × d: rows are unmixing directions
    let mut directions = Matrix::zeros(k, d);
    let mut scores = Vec::with_capacity(k);
    let mut sources_sorted = Matrix::zeros(n, k);
    for (rank_pos, &(c, score)) in scored.iter().enumerate() {
        let mut row = w_input.row(c).to_vec();
        vector::normalize(&mut row);
        directions.set_row(rank_pos, &row);
        scores.push(score);
        sources_sorted.set_col(rank_pos, &sources.col(c));
    }
    Ok(IcaResult {
        directions,
        scores,
        sources: sources_sorted,
        converged,
        iterations,
    })
}

/// One fixed-point step for all rows of `w` at once:
/// `w⁺ = E[z·g(wᵀz)] − E[g′(wᵀz)]·w`.
fn fixed_point_step(z: &Matrix, w: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(w.rows(), w.cols());
    fixed_point_into(kernel(), z, w.as_slice(), out.as_mut_slice());
    out
}

/// Components per register tile of the projection kernel (two avx2
/// vectors); `w` is zero-padded to a multiple of this.
const TILE_COLS: usize = 8;
/// Rows per block: the projection tile, the `g′` sums and the axpys all
/// work on this many rows at once.
const TILE_ROWS: usize = 4;

/// [`fixed_point_step`] on row-major slices, accumulating with `kernel`:
/// `w` and `out` are `k × r` with `r = z.cols()`. One pass over the rows
/// of `z` updates all `k` components, and every output element keeps the
/// summation order of the per-component loop: each projection is summed
/// over `j` from `-0.0` as [`vector::dot`] does, and each accumulator over
/// rows in row order. The result is therefore bit-identical to running
/// the components one by one.
fn fixed_point_into(kernel: Kernel, z: &Matrix, w: &[f64], out: &mut [f64]) {
    let (n, r) = z.shape();
    let k = w.len() / r;
    debug_assert_eq!(w.len(), k * r);
    debug_assert_eq!(out.len(), k * r);
    // `wt` is `w` transposed and zero-padded to `r × kp`, so the
    // projections of a row advance together, contiguous across components.
    let kp = k.next_multiple_of(TILE_COLS);
    let mut wt = vec![0.0; r * kp];
    for c in 0..k {
        for j in 0..r {
            wt[j * kp + c] = w[c * r + j];
        }
    }
    let mut eg_prime = vec![0.0; k];
    out.fill(0.0);
    kernel(z.as_slice(), &wt, out, &mut eg_prime);
    let inv_n = 1.0 / n as f64;
    for c in 0..k {
        let egp = eg_prime[c] * inv_n;
        let acc = &mut out[c * r..(c + 1) * r];
        for (a, &wcj) in acc.iter_mut().zip(&w[c * r..(c + 1) * r]) {
            *a = *a * inv_n - egp * wcj;
        }
    }
}

/// Signature shared by the compiled variants of [`accumulate_body`].
type Kernel = fn(&[f64], &[f64], &mut [f64], &mut [f64]);

/// The accumulation kernel for this CPU, chosen on first use.
fn kernel() -> Kernel {
    static KERNEL: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return accumulate_avx2_detected;
        }
        accumulate_body
    })
}

/// [`accumulate_body`] compiled for avx2: wider vectors for the projection
/// and axpy loops, and still no FMA, so every product is rounded before
/// its add. Calling it on a CPU without avx2 is undefined behaviour, so
/// its one caller is [`accumulate_avx2_detected`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn accumulate_avx2(z: &[f64], wt: &[f64], ezg: &mut [f64], eg_prime: &mut [f64]) {
    accumulate_body(z, wt, ezg, eg_prime);
}

/// Only reachable through [`kernel`], which hands it out after detecting
/// avx2.
#[cfg(target_arch = "x86_64")]
fn accumulate_avx2_detected(z: &[f64], wt: &[f64], ezg: &mut [f64], eg_prime: &mut [f64]) {
    // SAFETY: `kernel` selects this function only when the CPU has avx2.
    unsafe { accumulate_avx2(z, wt, ezg, eg_prime) }
}

/// One pass over the rows of `z` (`n × r`, row-major), [`TILE_ROWS`] rows
/// at a time, then the leftover rows one by one. `wt` is `w` transposed
/// and padded (`r × kp`); `ezg` is the `k × r` accumulator of `g(u_c)·z_i`
/// and `eg_prime` the `k` sums of `g′(u_c)`. Called through a pointer it
/// is the portable variant; inlined into [`accumulate_avx2`] it is the
/// avx2 one.
#[inline(always)]
fn accumulate_body(z: &[f64], wt: &[f64], ezg: &mut [f64], eg_prime: &mut [f64]) {
    let k = eg_prime.len();
    let r = ezg.len() / k;
    let mut u = vec![0.0; TILE_ROWS * wt.len() / r];
    let mut blocks = z.chunks_exact(TILE_ROWS * r);
    for block in &mut blocks {
        accumulate_rows::<TILE_ROWS>(block, wt, &mut u, ezg, eg_prime);
    }
    for row in blocks.remainder().chunks_exact(r) {
        accumulate_rows::<1>(row, wt, &mut u, ezg, eg_prime);
    }
}

/// The fixed-point sums over `RB` consecutive rows:
/// 1. `u_bc = Σ_j z_bj·w_cj` for every row `b` and component `c`, summed
///    over `j` in order from `-0.0`, in `RB × TILE_COLS` register tiles;
/// 2. one `g`/`g′` evaluation per (row, component), `g′` added to
///    `eg_prime_c` in row order;
/// 3. `ezg_cj += g_bc·z_bj` for `b` in row order, each accumulator
///    element loaded and stored once per block.
#[inline(always)]
fn accumulate_rows<const RB: usize>(
    rows: &[f64],
    wt: &[f64],
    u: &mut [f64],
    ezg: &mut [f64],
    eg_prime: &mut [f64],
) {
    let k = eg_prime.len();
    let r = rows.len() / RB;
    let kp = wt.len() / r;
    let z: [&[f64]; RB] = std::array::from_fn(|b| &rows[b * r..(b + 1) * r]);
    for c0 in (0..kp).step_by(TILE_COLS) {
        let mut tile = [[-0.0_f64; TILE_COLS]; RB];
        for j in 0..r {
            let w = &wt[j * kp + c0..][..TILE_COLS];
            for b in 0..RB {
                let zbj = z[b][j];
                for l in 0..TILE_COLS {
                    tile[b][l] += zbj * w[l];
                }
            }
        }
        for b in 0..RB {
            u[b * kp + c0..][..TILE_COLS].copy_from_slice(&tile[b]);
        }
    }
    // Each projection is overwritten by its `g`.
    for b in 0..RB {
        for c in 0..k {
            let (g, gp) = g_and_g_prime(u[b * kp + c]);
            u[b * kp + c] = g;
            eg_prime[c] += gp;
        }
    }
    for (c, acc) in ezg.chunks_exact_mut(r).enumerate() {
        let g: [f64; RB] = std::array::from_fn(|b| u[b * kp + c]);
        for (j, a) in acc.iter_mut().enumerate() {
            let mut sum = *a;
            for b in 0..RB {
                sum += g[b] * z[b][j];
            }
            *a = sum;
        }
    }
}

/// Symmetric decorrelation `W ← (WWᵀ)^{-1/2} W`.
fn sym_decorrelate(w: &Matrix) -> Result<Matrix> {
    let wwt = w.matmul(&w.transpose());
    let inv_sqrt = sider_linalg::sym_inv_sqrt(&wwt)?;
    Ok(inv_sqrt.matmul(w))
}

fn random_orthonormal(k: usize, r: usize, rng: &mut Rng) -> Result<Matrix> {
    let w = rng.standard_normal_matrix(k, r);
    sym_decorrelate(&w)
}

fn symmetric_iteration(z: &Matrix, k: usize, rng: &mut Rng) -> Result<(Matrix, bool, usize)> {
    let mut w = random_orthonormal(k, z.cols(), rng)?;
    for iter in 1..=MAX_ITER {
        let w_new = sym_decorrelate(&fixed_point_step(z, &w))?;
        // Convergence: every direction stable up to sign.
        let mut worst = 0.0_f64;
        for c in 0..k {
            let dot = vector::dot(w_new.row(c), w.row(c)).abs();
            worst = worst.max((1.0 - dot).abs());
        }
        w = w_new;
        if worst < TOL {
            return Ok((w, true, iter));
        }
    }
    Ok((w, false, MAX_ITER))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_stats::gaussianity::{g, g_prime};

    /// Mix two independent non-Gaussian sources by a rotation.
    fn mixed_sources(n: usize, angle: f64, seed: u64) -> (Matrix, [f64; 2], [f64; 2]) {
        let mut rng = Rng::seed_from_u64(seed);
        let (c, s) = (angle.cos(), angle.sin());
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                // Source 1: uniform (sub-Gaussian); source 2: Laplace-ish.
                let s1 = (rng.uniform() - 0.5) * 3.4641; // unit variance
                let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                let s2 = sign * (-(1.0 - rng.uniform()).ln()) / std::f64::consts::SQRT_2;
                vec![c * s1 - s * s2, s * s1 + c * s2]
            })
            .collect();
        // True unmixing directions are the rows of the inverse rotation.
        ((Matrix::from_rows(&rows)), [c, s], [-s, c])
    }

    fn alignment(dir: &[f64], truth: &[f64]) -> f64 {
        vector::dot(dir, truth).abs() / (vector::norm2(dir) * vector::norm2(truth))
    }

    #[test]
    fn separates_rotated_sources_symmetric() {
        let (data, u1, u2) = mixed_sources(20_000, 0.6, 1);
        let mut rng = Rng::seed_from_u64(99);
        let res = fastica(&data, &IcaOpts::default(), &mut rng).unwrap();
        assert!(res.converged);
        assert_eq!(res.directions.shape(), (2, 2));
        // Each true direction must be recovered by some component.
        for truth in [u1, u2] {
            let best = (0..2)
                .map(|k| alignment(res.directions.row(k), &truth))
                .fold(0.0, f64::max);
            assert!(best > 0.98, "alignment {best}");
        }
    }

    #[test]
    fn scores_sorted_by_absolute_value() {
        let (data, _, _) = mixed_sources(5000, 0.3, 3);
        let mut rng = Rng::seed_from_u64(11);
        let res = fastica(&data, &IcaOpts::default(), &mut rng).unwrap();
        for pair in res.scores.windows(2) {
            assert!(pair[0].abs() >= pair[1].abs() - 1e-12);
        }
    }

    #[test]
    fn gaussian_data_scores_near_zero() {
        let mut rng = Rng::seed_from_u64(4);
        let data = rng.standard_normal_matrix(20_000, 3);
        let mut rng2 = Rng::seed_from_u64(5);
        let res = fastica(&data, &IcaOpts::default(), &mut rng2).unwrap();
        for &s in &res.scores {
            assert!(s.abs() < 0.01, "score {s}");
        }
    }

    #[test]
    fn clustered_data_scores_positive_and_large() {
        // Two clusters along x: strongly sub-Gaussian direction.
        let mut rng = Rng::seed_from_u64(6);
        let rows: Vec<Vec<f64>> = (0..4000)
            .map(|_| {
                let c = if rng.bernoulli(0.5) { -2.0 } else { 2.0 };
                vec![rng.normal(c, 0.3), rng.normal(0.0, 1.0)]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let mut rng2 = Rng::seed_from_u64(8);
        let res = fastica(&data, &IcaOpts::default(), &mut rng2).unwrap();
        assert!(res.scores[0] > 0.05, "top score {}", res.scores[0]);
        // The top direction is the cluster axis.
        assert!(res.directions.row(0)[0].abs() > 0.95);
    }

    #[test]
    fn sources_are_standardized() {
        let (data, _, _) = mixed_sources(2000, 0.9, 9);
        let mut rng = Rng::seed_from_u64(10);
        let res = fastica(&data, &IcaOpts::default(), &mut rng).unwrap();
        for c in 0..res.sources.cols() {
            let col = res.sources.col(c);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-10);
            assert!((var - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn rank_deficient_data_drops_null_directions() {
        // Column 2 = column 0 duplicated: rank 2 in 3 dims.
        let mut rng = Rng::seed_from_u64(12);
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|_| {
                let a = (rng.uniform() - 0.5) * 2.0;
                let b = rng.normal(0.0, 1.0);
                vec![a, b, a]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let mut rng2 = Rng::seed_from_u64(13);
        let res = fastica(&data, &IcaOpts::default(), &mut rng2).unwrap();
        assert_eq!(res.directions.rows(), 2); // rank, not 3
    }

    #[test]
    fn requesting_too_many_components_errors() {
        let mut rng = Rng::seed_from_u64(14);
        let data = rng.standard_normal_matrix(100, 2);
        let opts = IcaOpts {
            n_components: Some(5),
            ..IcaOpts::default()
        };
        let mut rng2 = Rng::seed_from_u64(15);
        assert!(matches!(
            fastica(&data, &opts, &mut rng2),
            Err(ProjectionError::RankDeficient { .. })
        ));
    }

    #[test]
    fn constant_data_is_rank_zero() {
        let data = Matrix::from_fn(50, 2, |_, _| 1.0);
        let mut rng = Rng::seed_from_u64(16);
        assert!(matches!(
            fastica(&data, &IcaOpts::default(), &mut rng),
            Err(ProjectionError::RankDeficient { .. })
        ));
    }

    #[test]
    fn empty_data_rejected() {
        let mut rng = Rng::seed_from_u64(17);
        assert!(matches!(
            fastica(&Matrix::zeros(0, 3), &IcaOpts::default(), &mut rng),
            Err(ProjectionError::EmptyData)
        ));
    }

    #[test]
    fn directions_unit_norm() {
        let (data, _, _) = mixed_sources(3000, 0.45, 20);
        let mut rng = Rng::seed_from_u64(21);
        let res = fastica(&data, &IcaOpts::default(), &mut rng).unwrap();
        for k in 0..res.directions.rows() {
            assert!((vector::norm2(res.directions.row(k)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn signed_order_puts_sub_gaussian_first() {
        // Direction 0: bimodal (sub-Gaussian, positive log-cosh offset);
        // direction 1: Laplace-ish (super-Gaussian, negative offset, larger
        // in absolute value).
        let mut rng = Rng::seed_from_u64(30);
        let rows: Vec<Vec<f64>> = (0..20_000)
            .map(|_| {
                let c = if rng.bernoulli(0.5) { -1.5 } else { 1.5 };
                let bimodal = rng.normal(c, 0.2);
                let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                let heavy = sign * (-(1.0 - rng.uniform()).ln());
                vec![bimodal, heavy]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let mut rng2 = Rng::seed_from_u64(31);
        let abs_first = fastica(&data, &IcaOpts::default(), &mut rng2).unwrap();
        let mut rng3 = Rng::seed_from_u64(31);
        let signed_first = fastica(
            &data,
            &IcaOpts {
                order: ComponentOrder::SignedDesc,
                ..IcaOpts::default()
            },
            &mut rng3,
        )
        .unwrap();
        // Signed ordering: positive (bimodal) first.
        assert!(signed_first.scores[0] > 0.0);
        assert!(signed_first.scores[1] < 0.0);
        assert!(signed_first.directions.row(0)[0].abs() > 0.9);
        // Absolute ordering must sort by magnitude.
        assert!(abs_first.scores[0].abs() >= abs_first.scores[1].abs());
    }

    #[test]
    fn single_restart_matches_pre_restart_behavior() {
        // restarts == 1 must consume the caller's generator directly, so
        // the result is byte-identical to the historical single-run path.
        let (data, _, _) = mixed_sources(3000, 0.7, 40);
        let res_a = fastica(&data, &IcaOpts::default(), &mut Rng::seed_from_u64(41)).unwrap();
        let opts_explicit = IcaOpts {
            restarts: 1,
            ..IcaOpts::default()
        };
        let res_b = fastica(&data, &opts_explicit, &mut Rng::seed_from_u64(41)).unwrap();
        assert_eq!(res_a.directions.as_slice(), res_b.directions.as_slice());
        assert_eq!(res_a.scores, res_b.scores);
    }

    #[test]
    fn restarts_deterministic_across_pool_sizes_and_never_worse() {
        let (data, _, _) = mixed_sources(4000, 0.5, 50);
        let opts = IcaOpts {
            restarts: 4,
            ..IcaOpts::default()
        };
        let run = |threads: usize| {
            let pool = ThreadPool::new(threads);
            fastica_with(&data, &opts, &mut Rng::seed_from_u64(51), &pool).unwrap()
        };
        let serial = run(1);
        for threads in [2usize, 4] {
            let par = run(threads);
            assert_eq!(
                serial.directions.as_slice(),
                par.directions.as_slice(),
                "{threads} threads"
            );
            assert_eq!(serial.scores, par.scores, "{threads} threads");
        }
        // The winner of 4 restarts scores at least as high as the run
        // seeded with the first drawn seed alone.
        let mut rng = Rng::seed_from_u64(51);
        let first_seed = rng.next_u64();
        let single = fastica(
            &data,
            &IcaOpts::default(),
            &mut Rng::seed_from_u64(first_seed),
        )
        .unwrap();
        let sum = |r: &IcaResult| r.scores.iter().map(|s| s.abs()).sum::<f64>();
        assert!(sum(&serial) >= sum(&single) - 1e-12);
    }

    /// A restart run identified by `iterations`, with the given scores.
    fn run(iterations: usize, scores: &[f64]) -> Result<IcaResult> {
        Ok(IcaResult {
            directions: Matrix::zeros(scores.len(), 2),
            scores: scores.to_vec(),
            sources: Matrix::zeros(3, scores.len()),
            converged: true,
            iterations,
        })
    }

    fn failed(rank: usize) -> Result<IcaResult> {
        Err(ProjectionError::RankDeficient { rank, requested: 9 })
    }

    #[test]
    fn restarts_error_only_when_every_restart_fails() {
        assert_eq!(
            best_restart(vec![failed(1), failed(2), failed(3)]).unwrap_err(),
            ProjectionError::RankDeficient {
                rank: 1,
                requested: 9
            }
        );
        let one_ok = best_restart(vec![failed(1), run(7, &[0.1]), failed(3)]);
        assert_eq!(one_ok.unwrap().iterations, 7);
    }

    #[test]
    fn best_restart_picks_the_largest_total_abs_score() {
        let runs = vec![
            run(1, &[0.2, 0.1]),
            failed(2),
            run(3, &[-0.3, 0.05]),
            run(4, &[0.1, -0.1]),
        ];
        assert_eq!(best_restart(runs).unwrap().iterations, 3);
    }

    #[test]
    fn best_restart_tie_keeps_the_earlier_run() {
        let runs = vec![failed(1), run(2, &[0.25, -0.5]), run(3, &[-0.5, 0.25])];
        assert_eq!(best_restart(runs).unwrap().iterations, 2);
    }

    #[test]
    fn non_converged_run_returns_the_last_iterate() {
        // Isotropic Gaussian data has no non-Gaussian direction to settle
        // on, so this run is still moving after the 200th iteration.
        let data = Rng::seed_from_u64(2).standard_normal_matrix(500, 3);
        let res = fastica(&data, &IcaOpts::default(), &mut Rng::seed_from_u64(102)).unwrap();
        assert!(!res.converged);
        assert_eq!(res.iterations, MAX_ITER);
        assert_eq!(res.directions.shape(), (3, 3));
        assert_eq!(res.scores.len(), 3);
        assert_eq!(res.sources.shape(), (500, 3));
        for k in 0..3 {
            assert!((vector::norm2(res.directions.row(k)) - 1.0).abs() < 1e-12);
        }
    }

    /// The per-component fixed-point step the single-pass kernel replaced:
    /// `k` passes over `z`, two nonlinearity calls per row. Kept as the
    /// bit-exact reference for [`fixed_point_into`].
    fn fixed_point_step_oracle(z: &Matrix, w: &Matrix) -> Matrix {
        let (n, r) = z.shape();
        let k = w.rows();
        let mut out = Matrix::zeros(k, r);
        let inv_n = 1.0 / n as f64;
        for c in 0..k {
            let wv = w.row(c);
            let mut ezg = vec![0.0; r];
            let mut eg_prime = 0.0;
            for i in 0..n {
                let zi = z.row(i);
                let u = vector::dot(zi, wv);
                vector::axpy(g(u), zi, &mut ezg);
                eg_prime += g_prime(u);
            }
            vector::scale(&mut ezg, inv_n);
            eg_prime *= inv_n;
            let out_row = out.row_mut(c);
            for j in 0..r {
                out_row[j] = ezg[j] - eg_prime * wv[j];
            }
        }
        out
    }

    /// Every compiled variant of the accumulation kernel this CPU can run.
    fn kernel_variants() -> Vec<(&'static str, Kernel)> {
        let mut variants: Vec<(&'static str, Kernel)> = vec![("portable", accumulate_body)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            variants.push(("avx2", accumulate_avx2_detected));
        }
        variants
    }

    #[test]
    fn single_pass_kernel_matches_per_component_oracle_bitwise() {
        let variants = kernel_variants();
        let mut rng = Rng::seed_from_u64(0xF1CA);
        for n in [1usize, 7, 513] {
            for r in [1usize, 2, 3, 32, 65] {
                // Gaussian rows plus an all-zero row (signed-zero sums) and
                // a large row (saturated tanh).
                let mut z = rng.standard_normal_matrix(n, r);
                if n > 2 {
                    z.row_mut(1).fill(0.0);
                    vector::scale(z.row_mut(2), 1e3);
                }
                for k in 1..=r {
                    let mut w = rng.standard_normal_matrix(k, r);
                    if k > 1 {
                        vector::scale(w.row_mut(k - 1), -0.0);
                    }
                    let want = fixed_point_step_oracle(&z, &w);
                    for &(name, kernel) in &variants {
                        let mut got = vec![f64::NAN; k * r];
                        fixed_point_into(kernel, &z, w.as_slice(), &mut got);
                        let same = got
                            .iter()
                            .zip(want.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{name} n={n} r={r} k={k}");
                    }
                }
            }
        }
    }

    /// FNV-1a over the `to_bits` of a run's directions, scores and
    /// sources, in that order.
    fn digest(res: &IcaResult) -> u64 {
        let bits = res
            .directions
            .as_slice()
            .iter()
            .chain(&res.scores)
            .chain(res.sources.as_slice())
            .map(|v| v.to_bits());
        bits.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            b.to_le_bytes().iter().fold(h, |h, &byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
            })
        })
    }

    /// 257 rows of four mixed non-Gaussian sources (uniform, Laplace-ish,
    /// bimodal, Gaussian).
    fn golden_data() -> Matrix {
        let mut rng = Rng::seed_from_u64(0x601D);
        Matrix::from_fn(257, 4, |_, j| match j {
            0 => rng.uniform() - 0.5,
            1 => {
                let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                sign * -(1.0 - rng.uniform()).ln()
            }
            2 => {
                let centre = if rng.bernoulli(0.5) { -1.0 } else { 1.0 };
                rng.normal(centre, 0.3)
            }
            _ => rng.standard_normal(),
        })
        .matmul(&Matrix::from_fn(4, 4, |i, j| {
            1.0 / (1.0 + i as f64 + 2.0 * j as f64)
        }))
    }

    #[test]
    fn golden_digests_pin_fastica_output_bits() {
        // Digests recorded with the per-component kernel
        // (`fixed_point_step_oracle`) in production; a change to any
        // summation order in the pipeline moves them.
        let data = golden_data();
        let sym = fastica(&data, &IcaOpts::default(), &mut Rng::seed_from_u64(1)).unwrap();
        assert_eq!(
            (digest(&sym), sym.iterations, sym.converged),
            (11559869570135363093, 8, true)
        );
    }
}
