//! Schema sanity check for the persisted benchmark artifacts.
//!
//! CI runs the `pipeline` and `scaling` benches in smoke mode and then
//! this binary, which fails (exit code 1) when `BENCH_pipeline.json` or
//! `BENCH_scaling.json` is missing, unparsable, or missing the fields the
//! perf trajectory across PRs relies on. It deliberately does **not**
//! gate on cross-machine speedup values: CI machines (and 1-CPU
//! containers) make absolute timing thresholds meaningless — the guarded
//! invariants are artifact shape, the recorded
//! `bit_identical_across_threads` determinism flag, and the *same-run
//! relative* ratio that is machine-independent by construction:
//! `eigen.dc_speedup` (the `SymEigen::decompose` divide-and-conquer
//! dispatch vs raw Jacobi on the same class precision) must be ≥ 1.0
//! wherever `d ≥ 32` — the dispatch threshold above which D&C carries
//! cold decompositions.
//!
//! Every failure message names the offending file and the full JSON path
//! (e.g. `BENCH_scaling.json: scenarios[2].runs[1].sample_ns`), so a
//! broken artifact can be located without opening the file.

use sider_json::Json;
use std::process::ExitCode;

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load(name: &str) -> Result<Json, String> {
    let path = workspace_root().join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: malformed JSON: {e}", path.display()))
}

/// Require a finite non-negative number at `prefix` + `key`, reporting the
/// full JSON path on failure.
fn require_num_at(doc: &Json, prefix: &str, key: &str) -> Result<f64, String> {
    let full = if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    };
    let v = doc
        .require_num(key)
        .map_err(|e| format!("at JSON path '{full}': {e}"))?;
    if v < 0.0 {
        return Err(format!("JSON path '{full}' is negative ({v})"));
    }
    Ok(v)
}

fn check_pipeline(doc: &Json) -> Result<(), String> {
    if doc.get("bench").and_then(Json::as_str) != Some("pipeline_cold_vs_warm") {
        return Err("JSON path 'bench' is not the string 'pipeline_cold_vs_warm'".into());
    }
    for key in [
        "samples",
        "cold_fit.median_ns",
        "cold_fit.sweeps",
        "cold_fit.eigen_recomputed",
        "warm_refit.median_ns",
        "warm_refit.sweeps",
        "warm_refit.eigen_recomputed",
        "speedup",
    ] {
        require_num_at(doc, "", key)?;
    }
    Ok(())
}

fn check_scaling(doc: &Json) -> Result<(), String> {
    if doc.get("bench").and_then(Json::as_str) != Some("scaling") {
        return Err("JSON path 'bench' is not the string 'scaling'".into());
    }
    for key in ["available_parallelism", "max_threads", "reps", "classes"] {
        if require_num_at(doc, "", key)? < 1.0 {
            return Err(format!("JSON path '{key}' must be >= 1"));
        }
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("missing 'scenarios' array")?;
    if scenarios.is_empty() {
        return Err("JSON path 'scenarios' is an empty array".into());
    }
    for (i, sc) in scenarios.iter().enumerate() {
        let at = format!("scenarios[{i}]");
        for key in [
            "n",
            "d",
            "eigen.jacobi_ns",
            "eigen.dc_ns",
            "eigen.dc_speedup",
            "store.recover_ns",
            "store.recover_ops",
            "store.wal_bytes",
            "parallel_speedup_max_vs_1",
        ] {
            require_num_at(sc, &at, key)?;
        }
        // The crash-recovery metric must come from a real replay: zero
        // recovered ops or a zero-duration recovery means the bench did
        // not actually rebuild the session from its op-log.
        for key in ["store.recover_ns", "store.recover_ops", "store.wal_bytes"] {
            if require_num_at(sc, &at, key)? < 1.0 {
                return Err(format!(
                    "JSON path '{at}.{key}' must be >= 1 (recovery was not exercised)"
                ));
            }
        }
        let d = require_num_at(sc, &at, "d")?;
        // The cold-eigensolver dispatch must not lose to the raw Jacobi
        // solve it wraps once the divide-and-conquer path engages
        // (`d ≥ 32`, the dispatch threshold). Below that the dispatch
        // *is* Jacobi and the ratio is pure timing noise. Same-run
        // relative ratio — machine-independent by construction.
        let dc_speedup = require_num_at(sc, &at, "eigen.dc_speedup")?;
        if d >= 32.0 && dc_speedup < 1.0 {
            return Err(format!(
                "JSON path '{at}.eigen.dc_speedup': {dc_speedup} < 1.0 at d = {d} — \
                 the divide-and-conquer solver lost to the Jacobi path it replaces"
            ));
        }
        if sc
            .path("bit_identical_across_threads")
            .and_then(Json::as_bool)
            != Some(true)
        {
            return Err(format!(
                "JSON path '{at}.bit_identical_across_threads': results were NOT \
                 bit-identical across thread counts"
            ));
        }
        let runs = sc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing '{at}.runs' array"))?;
        if runs.is_empty() {
            return Err(format!("JSON path '{at}.runs' is an empty array"));
        }
        for (j, run) in runs.iter().enumerate() {
            let at = format!("{at}.runs[{j}]");
            for key in [
                "threads",
                "sample_ns",
                "refresh_ns",
                "whiten_ns",
                "pca_ns",
                "matmul_ns",
                "hot_total_ns",
            ] {
                require_num_at(run, &at, key)?;
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut failed = false;
    for (name, check) in [
        (
            "BENCH_pipeline.json",
            check_pipeline as fn(&Json) -> Result<(), String>,
        ),
        (
            "BENCH_scaling.json",
            check_scaling as fn(&Json) -> Result<(), String>,
        ),
    ] {
        match load(name).and_then(|doc| check(&doc)) {
            Ok(()) => println!("check_bench_artifacts: {name}: OK"),
            Err(e) => {
                eprintln!("check_bench_artifacts: {name}: FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
