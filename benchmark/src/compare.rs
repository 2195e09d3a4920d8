//! `--compare A.json B.json`: is B (the change) no worse than A (the
//! parent) on every pairing of end-to-end metric and workload?
//!
//! Both files are `result.json` of a whole-suite invocation. The verdicts
//! follow the choosing-metrics rule: a median worse by more than the
//! metric's bound is `regressed`; where the run-to-run spread is wider
//! than the bound and the two sides' runs overlap, the pair is
//! `unresolved`, not `ok`.

use serde_json::Value;

use crate::metrics::{median, spread, Better, END_TO_END};

/// Outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Ok,
    /// The spread is wider than the bound and the runs overlap.
    Unresolved,
    /// Worse than the parent's median by more than the bound.
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Applies `bound` to the parent's and the change's runs of one metric.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let ((p_lo, p_hi), (c_lo, c_hi)) = (range(parent), range(change));
    let overlap = p_lo <= c_hi && c_lo <= p_hi;
    if spread(parent).max(spread(change)) > bound && overlap {
        Verdict::Unresolved
    } else if better.worse_by(median(parent), median(change)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn field<'a>(v: &'a Value, path: &str, name: &str) -> Result<&'a Value, String> {
    v.field(name).map_err(|e| format!("{path}: {e}"))
}

/// The fields two results must share to be comparable at all.
fn shape(v: &Value, path: &str) -> Result<String, String> {
    if field(v, path, "comparable")?.as_bool() != Some(true) {
        return Err(format!(
            "{path}: stamped \"comparable\": false (a smoke-scale result)"
        ));
    }
    let host = field(v, path, "host")?;
    let parts = [
        field(v, path, "seed")?,
        field(v, path, "scale")?,
        field(v, path, "seconds")?,
        field(v, path, "thread_shape")?,
        field(host, path, "nproc")?,
    ];
    Ok(parts
        .iter()
        .map(|p| serde_json::to_string(*p).unwrap_or_default())
        .collect::<Vec<_>>()
        .join(" "))
}

fn values(workload: &Value, path: &str, metric: &str) -> Result<Vec<f64>, String> {
    let entry = field(field(workload, path, "end_to_end")?, path, metric)?;
    let values: Vec<f64> = field(entry, path, "values")?
        .as_array()
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    if values.is_empty() {
        return Err(format!("{path}: {metric} has no values"));
    }
    Ok(values)
}

/// Compares two result files, prints one row per pair, and returns
/// whether every pair is `ok` and no workload's failures rose.
pub fn compare(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let (p_shape, c_shape) = (shape(&parent, parent_path)?, shape(&change, change_path)?);
    if p_shape != c_shape {
        return Err(format!(
            "refusing to compare results of different seed, scale, seconds, thread shape or \
             nproc:\n  {parent_path}: {p_shape}\n  {change_path}: {c_shape}"
        ));
    }
    let list = |v: &'_ Value, path: &str| -> Result<Vec<Value>, String> {
        Ok(field(v, path, "workloads")?
            .as_array()
            .unwrap_or_default()
            .to_vec())
    };
    let (p_workloads, c_workloads) = (list(&parent, parent_path)?, list(&change, change_path)?);
    let mut all_ok = true;
    println!(
        "{:<20} {:<16} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "parent", "change", "worse", "bound"
    );
    for p in &p_workloads {
        let name = field(p, parent_path, "name")?.as_str().unwrap_or_default();
        let c = c_workloads
            .iter()
            .find(|c| c.field("name").ok().and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("{change_path}: no workload {name}"))?;
        for m in &END_TO_END {
            let (pv, cv) = (
                values(p, parent_path, m.name)?,
                values(c, change_path, m.name)?,
            );
            let v = verdict(&pv, &cv, m.better, m.bound);
            all_ok &= v == Verdict::Ok;
            println!(
                "{:<20} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>6.0}%  {}",
                name,
                m.name,
                median(&pv),
                median(&cv),
                100.0 * m.better.worse_by(median(&pv), median(&cv)),
                100.0 * m.bound,
                v.as_str()
            );
        }
        let failed = |w: &Value, path: &str| -> Result<u64, String> {
            Ok(field(w, path, "failed")?.as_u64().unwrap_or(0))
        };
        let (pf, cf) = (failed(p, parent_path)?, failed(c, change_path)?);
        if cf > pf {
            all_ok = false;
            println!("{name:<20} failed operations rose from {pf} to {cf}  regressed");
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;
    const HIGHER: Better = Better::Higher;

    #[test]
    fn steady_runs_within_the_bound_are_ok() {
        let parent = [10.0, 10.1, 9.9];
        assert_eq!(
            verdict(&parent, &[10.4, 10.5, 10.3], LOWER, 0.1),
            Verdict::Ok
        );
        assert_eq!(verdict(&parent, &[9.0, 9.1, 8.9], LOWER, 0.1), Verdict::Ok);
        assert_eq!(verdict(&parent, &[9.4, 9.5, 9.3], HIGHER, 0.1), Verdict::Ok);
    }

    #[test]
    fn a_median_past_the_bound_regresses() {
        let parent = [10.0, 10.1, 9.9];
        assert_eq!(
            verdict(&parent, &[11.2, 11.3, 11.1], LOWER, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &[8.8, 8.9, 8.7], HIGHER, 0.1),
            Verdict::Regressed
        );
        // A gain is never a regression, whatever its size.
        assert_eq!(verdict(&parent, &[5.0, 5.1, 4.9], LOWER, 0.1), Verdict::Ok);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_ok() {
        let parent = [10.0, 12.0, 8.0]; // spread 0.4
        assert_eq!(
            verdict(&parent, &[10.5, 9.0, 11.0], LOWER, 0.1),
            Verdict::Unresolved
        );
        // Wide but disjoint: every run of the change beats every run of
        // the parent, or loses to it.
        assert_eq!(verdict(&parent, &[7.0, 6.0, 7.5], LOWER, 0.1), Verdict::Ok);
        assert_eq!(
            verdict(&parent, &[13.0, 14.0, 15.0], LOWER, 0.1),
            Verdict::Regressed
        );
    }
}
