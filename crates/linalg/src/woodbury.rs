//! Sherman–Morrison rank-1 updates.
//!
//! The MaxEnt optimizer adds `λ·w·wᵀ` to a precision matrix at every
//! quadratic-constraint update (paper Eq. 10 discussion). Keeping the dual
//! covariance in sync would cost `O(d³)` with an explicit inverse; the
//! Sherman–Morrison identity
//!
//! `(P + λwwᵀ)⁻¹ = Σ − λ·(Σw)(Σw)ᵀ / (1 + λ·wᵀΣw)`
//!
//! does it in `O(d²)` — the paper's headline speed-up.

use crate::matrix::Matrix;
use crate::vector;

/// Result of preparing a rank-1 update of `Σ = P⁻¹` for direction `w`.
#[derive(Debug, Clone)]
pub struct Rank1 {
    /// `g = Σ·w`.
    pub g: Vec<f64>,
    /// `c = wᵀ·Σ·w = wᵀg` (non-negative for PSD Σ).
    pub c: f64,
}

/// Compute `g = Σw` and `c = wᵀΣw` for a symmetric `Σ`.
pub fn prepare(sigma: &Matrix, w: &[f64]) -> Rank1 {
    let g = sigma.matvec(w);
    let c = vector::dot(w, &g);
    Rank1 { g, c }
}

/// Apply the Sherman–Morrison update in place:
/// `Σ ← Σ − λ·g·gᵀ/(1 + λc)` where `g, c` come from [`prepare`].
///
/// # Panics
/// Panics (in debug builds) if `1 + λc ≤ 0`, which would make the updated
/// matrix indefinite.
pub fn apply(sigma: &mut Matrix, r: &Rank1, lambda: f64) {
    let denom = 1.0 + lambda * r.c;
    debug_assert!(
        denom > 0.0,
        "sherman-morrison: 1 + λc = {denom} not positive"
    );
    if lambda == 0.0 {
        return;
    }
    sigma.add_outer(-lambda / denom, &r.g, &r.g);
    sigma.symmetrize();
}

/// Convenience: updated covariance as a new matrix.
pub fn updated(sigma: &Matrix, w: &[f64], lambda: f64) -> Matrix {
    let r = prepare(sigma, w);
    let mut out = sigma.clone();
    apply(&mut out, &r, lambda);
    out
}

/// Rank-1 update of the precision itself: `P ← P + λ·w·wᵀ`.
pub fn precision_update(prec: &mut Matrix, w: &[f64], lambda: f64) {
    prec.add_outer(lambda, w, w);
    prec.symmetrize();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            vec![2.0, 0.3, 0.1],
            vec![0.3, 1.5, -0.2],
            vec![0.1, -0.2, 1.0],
        ])
    }

    #[test]
    fn matches_direct_inverse() {
        // Σ = P⁻¹; update P by λwwᵀ, compare Woodbury Σ with direct inverse.
        let p = spd3();
        let sigma = lu::inverse(&p).unwrap();
        let w = vec![0.5, -1.0, 2.0];
        let lambda = 0.7;

        let wb = updated(&sigma, &w, lambda);

        let mut p2 = p.clone();
        precision_update(&mut p2, &w, lambda);
        let direct = lu::inverse(&p2).unwrap();

        assert!(wb.max_abs_diff(&direct) < 1e-12);
    }

    #[test]
    fn negative_lambda_within_bound_ok() {
        let p = spd3();
        let sigma = lu::inverse(&p).unwrap();
        let w = vec![1.0, 0.0, 0.0];
        let r = prepare(&sigma, &w);
        // `1 + λc > 0` keeps the updated precision positive definite along
        // `w`; half the bound `-1/c` is safely inside the admissible range.
        let lambda = -0.5 / r.c;
        let wb = updated(&sigma, &w, lambda);
        let mut p2 = p.clone();
        precision_update(&mut p2, &w, lambda);
        let direct = lu::inverse(&p2).unwrap();
        assert!(wb.max_abs_diff(&direct) < 1e-10);
    }

    #[test]
    fn zero_lambda_is_identity_operation() {
        let sigma = spd3();
        let out = updated(&sigma, &[1.0, 1.0, 1.0], 0.0);
        assert!(out.max_abs_diff(&sigma) < 1e-15);
    }

    #[test]
    fn prepare_c_is_quadratic_form() {
        let sigma = spd3();
        let w = vec![1.0, 2.0, -1.0];
        let r = prepare(&sigma, &w);
        assert!((r.c - sigma.quad_form(&w)).abs() < 1e-12);
    }

    #[test]
    fn repeated_updates_stay_consistent() {
        // Chain of 5 rank-1 updates tracked by Woodbury must equal the
        // direct inverse of the accumulated precision.
        let p0 = Matrix::identity(3);
        let mut sigma = Matrix::identity(3);
        let mut p = p0.clone();
        let ws = [
            vec![1.0, 0.0, 0.0],
            vec![0.3, 0.7, 0.0],
            vec![0.0, -0.5, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![-0.2, 0.1, 0.4],
        ];
        for (k, w) in ws.iter().enumerate() {
            let lambda = 0.2 * (k as f64 + 1.0);
            let r = prepare(&sigma, w);
            apply(&mut sigma, &r, lambda);
            precision_update(&mut p, w, lambda);
        }
        let direct = lu::inverse(&p).unwrap();
        assert!(sigma.max_abs_diff(&direct) < 1e-10);
    }

    #[test]
    fn large_lambda_drives_variance_to_zero() {
        let mut sigma = Matrix::identity(2);
        let w = vec![1.0, 0.0];
        let r = prepare(&sigma, &w);
        apply(&mut sigma, &r, 1e12);
        assert!(sigma[(0, 0)] < 1e-10);
        assert!((sigma[(1, 1)] - 1.0).abs() < 1e-12);
    }
}
