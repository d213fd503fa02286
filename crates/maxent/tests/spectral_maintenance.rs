//! Warm-loop equivalence tests for the background refresh: after every
//! refit, the cached background — cov-dirty classes re-decomposed,
//! mean-only classes with a swapped mean, split-off classes cloned from
//! their parent — must equal a fresh decomposition of the solver's
//! current parameters bit for bit, on whitening and on seeded sampling,
//! at any thread-pool size.

use sider_linalg::Matrix;
use sider_maxent::constraint::{cluster_constraints, margin_constraints, twod_constraints};
use sider_maxent::engine::SolverState;
use sider_maxent::rowset::RowSet;
use sider_maxent::solver::FitOpts;
use sider_maxent::{BackgroundDistribution, Constraint};
use sider_par::ThreadPool;
use sider_stats::Rng;
use std::sync::Arc;

fn tight() -> FitOpts {
    FitOpts::with_tolerance(1e-8, 5000)
}

fn gen_data(seed: u64, n: usize, d: usize) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    Matrix::from_fn(n, d, |i, j| {
        let center = if i < n / 3 { 1.2 } else { -0.4 };
        center + rng.normal(0.1 * j as f64, 1.0 + 0.1 * j as f64)
    })
}

fn pool_of(threads: usize) -> Arc<ThreadPool> {
    Arc::new(if threads == 1 {
        ThreadPool::serial()
    } else {
        ThreadPool::new(threads)
    })
}

/// Axis-pair (e₀, e₁) 2-D feedback over the first third of the rows —
/// the paper's canonical projection-marking interaction.
fn twod_feedback(data: &Matrix) -> Vec<Constraint> {
    let (n, d) = data.shape();
    let rows = RowSet::from_indices(&(0..n / 3).collect::<Vec<_>>());
    let mut a1 = vec![0.0; d];
    a1[0] = 1.0;
    let mut a2 = vec![0.0; d];
    a2[1] = 1.0;
    twod_constraints(data, rows, &a1, &a2, "v").unwrap()
}

/// `cached` whitens and samples exactly — bit for bit — like `fresh`.
fn assert_bit_equal(
    cached: &BackgroundDistribution,
    fresh: &BackgroundDistribution,
    data: &Matrix,
    ctx: &str,
) {
    assert_eq!(
        cached.whiten(data).unwrap().as_slice(),
        fresh.whiten(data).unwrap().as_slice(),
        "{ctx}: whiten differs from a fresh decomposition"
    );
    assert_eq!(
        cached.sample(&mut Rng::seed_from_u64(3)).as_slice(),
        fresh.sample(&mut Rng::seed_from_u64(3)).as_slice(),
        "{ctx}: sample differs from a fresh decomposition"
    );
}

/// The engine's cached background equals a fresh decomposition of its
/// solver's current parameters.
fn assert_cache_is_fresh(st: &SolverState, data: &Matrix, ctx: &str) {
    assert_bit_equal(st.background(), &st.solver().distribution(), data, ctx);
}

#[test]
fn warm_incremental_refresh_matches_cold_refit() {
    // A twod round at d = 16 moves the two marked axes (plus the two
    // aligned margins) for the marked rows' classes only: the warm
    // refresh re-decomposes those and must still agree with a from-scratch
    // fit.
    let data = gen_data(11, 60, 16);
    let margins = margin_constraints(&data).unwrap();
    let feedback = twod_feedback(&data);

    let (mut warm, _) = SolverState::cold(&data, margins.clone(), &tight()).unwrap();
    warm.refit(feedback.clone(), &tight()).unwrap();
    let stats = warm.last_refresh();
    assert!(
        stats.eigen_recomputed > 0,
        "twod feedback must move a covariance: {stats:?}"
    );

    // (a) Bit-identical to a fresh decomposition of the *same* solver
    // parameters.
    assert_cache_is_fresh(&warm, &data, "twod round");

    // (b) End-to-end agreement with a cold session over the union of
    // constraints (within the fit tolerances, as for any warm refit).
    let y_warm = warm.background().whiten(&data).unwrap();
    let s_warm = warm.background().sample(&mut Rng::seed_from_u64(3));
    let mut all = margins;
    all.extend(feedback);
    let (cold, _) = SolverState::cold(&data, all, &tight()).unwrap();
    let y_cold = cold.background().whiten(&data).unwrap();
    assert!(
        y_warm.max_abs_diff(&y_cold) < 1e-5,
        "warm session vs cold refit: whiten diff {}",
        y_warm.max_abs_diff(&y_cold)
    );
    let s_cold = cold.background().sample(&mut Rng::seed_from_u64(3));
    assert!(
        s_warm.max_abs_diff(&s_cold) < 1e-4,
        "warm session vs cold refit: sample diff {}",
        s_warm.max_abs_diff(&s_cold)
    );
}

#[test]
fn split_from_dirty_parent_keeps_cache_consistent() {
    // Direct Solver + refresh API, with no reset between the fit that
    // moves a class and the append that splits it (the engine always
    // resets in between, but the public API allows this sequence): the
    // child carries the parent's moved parameters, so it must inherit the
    // parent's dirty flags and be refreshed itself — otherwise it would
    // keep a clone of the parent's *pre-move* cached spectrum.
    use sider_maxent::Solver;
    let (n, d) = (40usize, 8usize);
    // Correlated columns: the margins leave cross-covariances unmatched,
    // so a quadratic along a diagonal direction genuinely moves λ.
    let mut rng = Rng::seed_from_u64(3);
    let mut shared = 0.0;
    let data = Matrix::from_fn(n, d, |_, j| {
        if j == 0 {
            shared = rng.normal(0.0, 1.0);
        }
        0.7 * shared + rng.normal(0.0, 0.8)
    });
    let mut s = Solver::new(&data, margin_constraints(&data).unwrap()).unwrap();
    s.fit(&tight());
    let bg = s.distribution();
    s.reset_dirty(); // cache synced with the solver here

    // A quadratic statement along (e₀+e₁)/√2 over *all* rows: the class
    // layout is unchanged (no split), but the cross-covariance target
    // moves λ — the cached all-rows class is now cov-dirty...
    let mut w = vec![0.0; d];
    w[0] = std::f64::consts::FRAC_1_SQRT_2;
    w[1] = std::f64::consts::FRAC_1_SQRT_2;
    let probe = Constraint::quadratic(&data, RowSet::all(n), w, "probe").unwrap();
    s.append_constraints(vec![probe]).unwrap();
    s.fit(&tight());
    assert_eq!(s.n_classes(), 1, "probe must not split");
    assert!(
        s.cov_dirty().iter().any(|&b| b),
        "probe must move a covariance"
    );

    // ...and then, *without* fitting or refreshing in between, a linear
    // statement that splits the dirty class. The split-off child is not
    // itself moved by any fit, so only inherited dirty flags can force
    // its refresh.
    let mut w2 = vec![0.0; d];
    w2[1] = 1.0;
    let split = Constraint::linear(
        &data,
        RowSet::from_indices(&(0..12).collect::<Vec<_>>()),
        w2,
        "split",
    )
    .unwrap();
    s.append_constraints(vec![split]).unwrap();
    assert!(
        s.cov_dirty().iter().all(|&b| b),
        "the split-off child must inherit its parent's cov-dirty flag"
    );

    for threads in [1usize, 2, 4] {
        let mut cached = bg.clone();
        let stats = cached.refresh_from_class_params_with(
            s.partition().class_of_row.clone(),
            s.class_params(),
            s.parent_of_class(),
            s.mean_dirty(),
            s.cov_dirty(),
            &pool_of(threads),
        );
        assert_eq!(stats.eigen_recomputed, s.n_classes(), "{stats:?}");
        assert_eq!(stats.cloned_from_parent, 0, "{stats:?}");
        // Every class — the split-off child included — must now match a
        // fresh decomposition of the current solver parameters.
        assert_bit_equal(
            &cached,
            &s.distribution(),
            &data,
            &format!("{threads} threads"),
        );
    }
}

#[test]
fn incremental_refresh_bit_identical_across_pool_sizes() {
    let data = gen_data(41, 90, 16);
    let margins = margin_constraints(&data).unwrap();
    let feedback = twod_feedback(&data);

    let run = |threads: usize| {
        let (mut st, _) =
            SolverState::cold_with(&data, margins.clone(), &tight(), pool_of(threads)).unwrap();
        st.refit(feedback.clone(), &tight()).unwrap();
        assert_cache_is_fresh(&st, &data, &format!("{threads} threads"));
        let stats = st.last_refresh();
        let y = st.background().whiten(&data).unwrap();
        let s = st.background().sample(&mut Rng::seed_from_u64(9));
        (stats, y, s)
    };

    let (stats1, y1, s1) = run(1);
    assert!(
        stats1.eigen_recomputed > 0,
        "scenario must drive a warm re-decomposition: {stats1:?}"
    );
    for threads in [2usize, 4] {
        let (stats, y, s) = run(threads);
        assert_eq!(stats1, stats, "{threads} threads: stats diverged");
        assert_eq!(y1.as_slice(), y.as_slice(), "{threads} threads: whiten");
        assert_eq!(s1.as_slice(), s.as_slice(), "{threads} threads: sample");
    }
}

#[test]
fn repeated_incremental_rounds_stay_consistent() {
    // Mixed twod and cluster rounds in sequence, at a dimension below,
    // at and above the divide-and-conquer dispatch threshold: whatever
    // each round re-decomposes, swaps or clones, the cached background
    // must always equal a fresh decomposition of the current solver
    // state — at every pool size. Cluster rounds over fewer rows than
    // dimensions never converge (their collapsed directions chase
    // `lambda_max`), so a sweep budget bounds each fit; a truncated fit
    // is resumed by the next round, which the cache must also track.
    let budget = FitOpts::with_tolerance(1e-8, 50);
    for d in [5usize, 16, 40] {
        let data = gen_data(57 + d as u64, 60, d);
        let n = data.rows();
        for threads in [1usize, 2, 4] {
            let (mut st, _) = SolverState::cold_with(
                &data,
                margin_constraints(&data).unwrap(),
                &budget,
                pool_of(threads),
            )
            .unwrap();
            let mut recomputed = 0;
            for round in 0..6 {
                let lo = (round * n / 5) % n;
                let hi = (lo + n / 4).min(n);
                let rows = RowSet::from_indices(&(lo..hi).collect::<Vec<_>>());
                let cs = if round % 3 == 2 {
                    cluster_constraints(&data, rows, format!("c{round}")).unwrap()
                } else {
                    let mut a1 = vec![0.0; d];
                    a1[(2 * round) % d] = 1.0;
                    let mut a2 = vec![0.0; d];
                    a2[(2 * round + 1) % d] = 1.0;
                    twod_constraints(&data, rows, &a1, &a2, format!("r{round}")).unwrap()
                };
                st.refit(cs, &budget).unwrap();
                recomputed += st.last_refresh().eigen_recomputed;
                assert_cache_is_fresh(
                    &st,
                    &data,
                    &format!("d={d} threads={threads} round {round}"),
                );
            }
            assert!(recomputed > 0, "d={d}: no round moved a covariance");
        }
    }
}
