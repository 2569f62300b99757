//! Every rule has a pass/fail fixture pair under `tests/fixtures/<rule-id>/`.
//! The fail fixture must produce at least one diagnostic *for that rule*,
//! the pass fixture must produce none at all. This pins both the detection
//! and the false-positive behaviour (scoping, test exemptions, hdm-allow).

use std::path::Path;

fn check_fixture(rule: &str, which: &str) -> Vec<hdm_analyze::Diagnostic> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let path = dir.join(rule).join(which);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    // Use the repo-relative path so fixture scoping kicks in.
    let rel = format!("crates/analyze/tests/fixtures/{rule}/{which}");
    hdm_analyze::check_source(&rel, &src)
}

#[test]
fn every_rule_has_fixtures_and_they_behave() {
    for (rule, _) in hdm_analyze::RULES {
        let failing = check_fixture(rule, "fail.rs");
        assert!(
            failing.iter().any(|d| d.rule == *rule),
            "fixtures/{rule}/fail.rs should trip {rule}, got: {failing:?}"
        );
        let passing = check_fixture(rule, "pass.rs");
        assert!(
            passing.is_empty(),
            "fixtures/{rule}/pass.rs should be clean, got: {passing:?}"
        );
    }
}

#[test]
fn fail_fixtures_only_trip_their_own_rule() {
    for (rule, _) in hdm_analyze::RULES {
        let failing = check_fixture(rule, "fail.rs");
        for d in &failing {
            assert_eq!(
                d.rule, *rule,
                "fixtures/{rule}/fail.rs tripped foreign rule: {d}"
            );
        }
    }
}

#[test]
fn no_panic_fail_fixture_reports_each_construct() {
    let diags = check_fixture("no-panic-in-hot-path", "fail.rs");
    let msgs: Vec<&str> = diags.iter().map(|d| d.msg.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains(".unwrap()")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains(".expect()")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("panic!")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("unreachable!")), "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("indexing/slicing")),
        "{msgs:?}"
    );
}

#[test]
fn tag_fail_fixture_reports_duplicate_and_stray() {
    let diags = check_fixture("tag-registry", "fail.rs");
    assert!(diags.iter().any(|d| d.msg.contains("duplicate tag value")));
    assert!(diags.iter().any(|d| d.msg.contains("outside a `mod tags`")));
}

#[test]
fn lock_order_fail_fixture_reports_cycle_and_self_deadlock() {
    let diags = check_fixture("lock-order-graph", "fail.rs");
    assert!(
        diags.iter().any(|d| d.msg.contains("lock-order cycle")),
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.msg.contains("self-deadlock")),
        "{diags:?}"
    );
}

#[test]
fn conf_key_unread_fixtures_flag_only_the_unread_key() {
    let failing = check_fixture("conf-key-registry", "unread/fail.rs");
    assert_eq!(failing.len(), 1, "{failing:?}");
    assert_eq!(failing[0].rule, "conf-key-registry");
    assert!(failing[0].msg.contains("KEY_RETIRED"), "{}", failing[0]);
    let passing = check_fixture("conf-key-registry", "unread/pass.rs");
    assert!(passing.is_empty(), "{passing:?}");
}

#[test]
fn lock_order_cycle_joins_across_files() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lock-order-graph/cross");
    let load = |name: &str| hdm_analyze::SourceFile {
        rel: format!("crates/analyze/tests/fixtures/lock-order-graph/cross/{name}"),
        src: std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}")),
    };
    let a = load("cycle_a.rs");
    let b = load("cycle_b.rs");

    // Each half alone has only forward edges — no cycle, no findings.
    for half in [&a, &b] {
        let alone = hdm_analyze::check_source(&half.rel, &half.src);
        assert!(alone.is_empty(), "{}: {alone:?}", half.rel);
    }

    // Joined, the maps→spills edge in one file and the spills→maps edge
    // in the other close a cycle; the diagnostic must cite the opposing
    // file so both halves of the inversion are visible.
    let joined = hdm_analyze::check_sources(&[a, b]);
    let cyc: Vec<_> = joined
        .iter()
        .filter(|d| d.rule == "lock-order-graph")
        .collect();
    assert_eq!(cyc.len(), 1, "{joined:?}");
    assert!(
        cyc[0].msg.contains("cycle_b.rs") || cyc[0].path.contains("cycle_b.rs"),
        "diagnostic should cite the opposing file: {}",
        cyc[0]
    );
}

#[test]
fn blocking_under_lock_fail_fixture_reports_each_class() {
    let diags = check_fixture("blocking-under-lock", "fail.rs");
    let msgs: Vec<&str> = diags.iter().map(|d| d.msg.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("channel send/recv")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("JoinHandle::join")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("thread sleep")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("file I/O")), "{msgs:?}");
}

#[test]
fn span_balance_fail_fixture_reports_each_unbalance() {
    let diags = check_fixture("obs-span-balance", "fail.rs");
    let msgs: Vec<&str> = diags.iter().map(|d| d.msg.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("end of statement")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("let _ =")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("mem::forget")), "{msgs:?}");
}

#[test]
fn swallowed_error_fail_fixture_reports_both_spellings() {
    let diags = check_fixture("swallowed-error", "fail.rs");
    let msgs: Vec<&str> = diags.iter().map(|d| d.msg.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`let _ =`")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("`.ok();`")), "{msgs:?}");
    // Both discard spellings must also be caught on the cancellation
    // path (the dropped `bail_if_cancelled()` / `.ok();`-ed recv pair):
    // 2 sites in `finish` + 2 in `poll_cancel`.
    assert_eq!(diags.len(), 4, "{msgs:?}");
}

/// The PR 9 scope widening: the cancellation spine outside the
/// contended crates — the token itself and the recovery/backoff layer —
/// is checked for swallowed Results; unrelated crates stay out of scope.
#[test]
fn swallowed_error_scope_covers_cancellation_spine() {
    let discard = "pub fn f(c: &CancelToken) { let _ = c.bail_if_cancelled(); }\n";
    for covered in [
        "crates/common/src/cancel.rs",
        "crates/faults/src/lib.rs",
        "crates/core/src/driver.rs",
        "crates/server/src/lib.rs",
    ] {
        let diags = hdm_analyze::check_source(covered, discard);
        assert!(
            diags.iter().any(|d| d.rule == "swallowed-error"),
            "{covered} must be in swallowed-error scope: {diags:?}"
        );
    }
    let out_of_scope = hdm_analyze::check_source("crates/workloads/src/lib.rs", discard);
    assert!(
        !out_of_scope.iter().any(|d| d.rule == "swallowed-error"),
        "{out_of_scope:?}"
    );
}
