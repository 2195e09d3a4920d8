//! One module per layer of experiments, plus the registry.

pub(crate) mod client_figs;
pub(crate) mod extensions;
pub(crate) mod session_figs;
pub(crate) mod tables;
pub(crate) mod transfer_figs;

use crate::context::ReproContext;
use crate::result::FigureResult;

/// An experiment: id plus runner.
pub type Experiment = (&'static str, fn(&ReproContext) -> FigureResult);

/// Every experiment, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("table1", tables::table1),
        ("sanity", tables::sanity),
        ("fig02", client_figs::fig02),
        ("fig03", client_figs::fig03),
        ("fig04", client_figs::fig04),
        ("fig05", client_figs::fig05),
        ("fig06", client_figs::fig06),
        ("fig07", client_figs::fig07),
        ("fig08", client_figs::fig08),
        ("fig09", session_figs::fig09),
        ("fig10", session_figs::fig10),
        ("fig11", session_figs::fig11),
        ("fig12", session_figs::fig12),
        ("fig13", session_figs::fig13),
        ("fig14", session_figs::fig14),
        ("fig15", transfer_figs::fig15),
        ("fig16", transfer_figs::fig16),
        ("fig17", transfer_figs::fig17),
        ("fig18", transfer_figs::fig18),
        ("fig19", transfer_figs::fig19),
        ("fig20", transfer_figs::fig20),
        ("table2", tables::table2),
    ]
}

/// Extension experiments beyond the paper's figures (self-similarity,
/// VBR encoding, the admission-control argument with retries).
pub fn extensions() -> Vec<Experiment> {
    vec![
        ("ext_selfsim", extensions::ext_selfsim),
        ("ext_vbr", extensions::ext_vbr),
        ("ext_admission", extensions::ext_admission),
    ]
}

/// Looks up one experiment by id (paper set and extensions).
pub fn by_id(id: &str) -> Option<Experiment> {
    all()
        .into_iter()
        .chain(extensions())
        .find(|(eid, _)| *eid == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_complete_and_unique() {
        let exps = all();
        assert_eq!(exps.len(), 22);
        let mut ids: Vec<&str> = exps.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 22, "duplicate experiment ids");
        assert!(by_id("fig07").is_some());
        assert!(by_id("ext_vbr").is_some());
        assert!(by_id("fig99").is_none());
        assert_eq!(extensions().len(), 3);
    }
}
