//! The acceptance gate: `hdm-analyze` run over the workspace's own
//! `crates/` tree must come back clean — across all ten rules, including
//! the cross-file lock-order graph and the stale-allow audit. Any new
//! violation either gets fixed or earns an explicit
//! `// hdm-allow(rule-id): reason` that provably suppresses it.

use std::path::Path;

#[test]
fn registry_has_all_ten_rules() {
    let ids: Vec<&str> = hdm_analyze::RULES.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        ids,
        [
            "no-panic-in-hot-path",
            "conf-key-registry",
            "tag-registry",
            "atomic-ordering",
            "unbounded-blocking",
            "lock-order-graph",
            "blocking-under-lock",
            "obs-span-balance",
            "swallowed-error",
            "busy-poll",
        ],
        "rule IDs are a stable interface; additions go at the end"
    );
}

#[test]
fn workspace_has_no_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root above crates/analyze");
    let crates = root.join("crates");
    let diags = hdm_analyze::check_paths(root, &[crates]).expect("scan workspace");
    assert!(
        diags.is_empty(),
        "workspace must be clean across all {} rules; violations:\n{}",
        hdm_analyze::RULES.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
