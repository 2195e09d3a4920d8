//! Experiment output types.

use serde::{Deserialize, Serialize};

/// A named plot series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Label (e.g. "CCDF", "mod-day fold").
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub(crate) fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            name: name.into(),
            points,
        }
    }
}

/// One paper-vs-measured quantity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// What is compared.
    pub name: String,
    /// The paper's value (`None` when the paper gives only a qualitative
    /// claim).
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
    /// Whether the reproduction criterion held (shape/agreement as defined
    /// by the experiment, not exact equality).
    pub holds: bool,
    /// How the criterion was judged.
    pub criterion: String,
}

impl Comparison {
    /// Quantitative comparison with a relative tolerance on the paper value.
    pub(crate) fn quantitative(
        name: impl Into<String>,
        paper: f64,
        measured: f64,
        rel_tol: f64,
    ) -> Self {
        let holds = if paper != 0.0 {
            ((measured - paper) / paper).abs() <= rel_tol
        } else {
            measured.abs() <= rel_tol
        };
        Self {
            name: name.into(),
            paper: Some(paper),
            measured,
            holds,
            criterion: format!("within {:.0}% of paper value", rel_tol * 100.0),
        }
    }

    /// Qualitative claim: `holds` judged by the experiment.
    pub(crate) fn qualitative(
        name: impl Into<String>,
        measured: f64,
        holds: bool,
        criterion: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            paper: None,
            measured,
            holds,
            criterion: criterion.into(),
        }
    }
}

/// The output of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureResult {
    /// Experiment id, e.g. "fig07".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Plot series (the figure's panels).
    pub series: Vec<Series>,
    /// Paper-vs-measured comparisons.
    pub comparisons: Vec<Comparison>,
    /// Free-form notes (scale caveats, substitutions).
    pub notes: String,
}

impl FigureResult {
    /// True when every comparison criterion held.
    pub fn all_hold(&self) -> bool {
        self.comparisons.iter().all(|c| c.holds)
    }

    /// Renders a one-experiment text summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        for c in &self.comparisons {
            let mark = if c.holds { "ok " } else { "MISS" };
            match c.paper {
                Some(p) => {
                    let _ = writeln!(
                        out,
                        "  [{mark}] {:<42} paper {:>12.4}  measured {:>12.4}  ({})",
                        c.name, p, c.measured, c.criterion
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  [{mark}] {:<42} measured {:>12.4}  ({})",
                        c.name, c.measured, c.criterion
                    );
                }
            }
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "  note: {}", self.notes);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantitative_tolerance() {
        let c = Comparison::quantitative("x", 2.0, 2.1, 0.1);
        assert!(c.holds);
        let c = Comparison::quantitative("x", 2.0, 2.5, 0.1);
        assert!(!c.holds);
        // Zero paper value: absolute criterion.
        let c = Comparison::quantitative("x", 0.0, 0.05, 0.1);
        assert!(c.holds);
    }

    #[test]
    fn render_marks_misses() {
        let r = FigureResult {
            id: "figX".into(),
            title: "test".into(),
            series: vec![],
            comparisons: vec![
                Comparison::quantitative("good", 1.0, 1.0, 0.1),
                Comparison::quantitative("bad", 1.0, 9.0, 0.1),
            ],
            notes: "scale caveat".into(),
        };
        assert!(!r.all_hold());
        let text = r.render_text();
        assert!(text.contains("[ok ]"));
        assert!(text.contains("[MISS]"));
        assert!(text.contains("scale caveat"));
    }
}
