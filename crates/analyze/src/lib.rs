//! `hdm-analyze` — workspace invariant checker for the HDM codebase.
//!
//! The paper's system lives or dies on a handful of cross-cutting
//! invariants that the Rust type system cannot express: rank threads must
//! not panic mid-protocol, message tags must not collide, completion flags
//! must carry acquire/release edges, conf keys must come from one registry,
//! communication loops must not block forever, lock pairs must be acquired
//! in one global order, nothing may block while a guard is live, obs spans
//! must balance on every path, hot-path `Result`s must not be silently
//! discarded, and runtime loops must block on events rather than poll for
//! them on sub-millisecond timers. This crate checks those invariants statically, as custom
//! lints with stable rule IDs, and is run in CI next to `cargo clippy`.
//!
//! Architecture: the analysis is **two-phase**. Phase 1 runs per file — a
//! dependency-free token lexer ([`lexer`]) feeds the per-file rule passes
//! ([`rules`]) and extracts lock facts (declarations, acquisition sites,
//! guard live ranges — [`rules::locks`]) and conf-key facts (registry
//! declarations, non-test references). Phase 2 runs over the whole
//! file set: the union of declared lock names resolves ambiguous
//! `.read()`/`.write()` acquisition candidates, `blocking-under-lock`
//! checks each file against its resolved guard ranges, and
//! `lock-order-graph` joins every file's acquisition chains into one
//! workspace lock-ordering graph and reports cycles, and
//! `conf-key-registry` flags registry keys no file reads. Single-file entry
//! points ([`check_source`]) are just the two-phase driver run on a
//! one-file workspace, so fixtures and unit tests exercise the same code
//! path as CI.
//!
//! Rules are scoped by path (e.g. panic rules only apply to hot-path
//! crates), test code is excluded where the rule says so, and individual
//! findings can be suppressed in-source with `// hdm-allow(rule-id):
//! reason` on the same or the preceding line. A missing reason, an
//! unknown rule id, or an allow that no longer suppresses anything
//! (stale) is itself an error (`allow-syntax`).

pub mod lexer;
pub mod rules;

use lexer::Token;
use rules::{Ctx, LineRange};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Stable rule registry: `(id, summary)`. IDs are part of the tool's
/// interface — CI logs, allow comments, and fixtures all key off them.
pub const RULES: &[(&str, &str)] = &[
    (rules::no_panic::ID, rules::no_panic::DESCRIPTION),
    (rules::conf_keys::ID, rules::conf_keys::DESCRIPTION),
    (rules::tag_registry::ID, rules::tag_registry::DESCRIPTION),
    (
        rules::atomic_ordering::ID,
        rules::atomic_ordering::DESCRIPTION,
    ),
    (
        rules::unbounded_blocking::ID,
        rules::unbounded_blocking::DESCRIPTION,
    ),
    (rules::lock_order::ID, rules::lock_order::DESCRIPTION),
    (
        rules::blocking_under_lock::ID,
        rules::blocking_under_lock::DESCRIPTION,
    ),
    (rules::span_balance::ID, rules::span_balance::DESCRIPTION),
    (
        rules::swallowed_error::ID,
        rules::swallowed_error::DESCRIPTION,
    ),
    (rules::busy_poll::ID, rules::busy_poll::DESCRIPTION),
];

/// Pseudo-rule for unusable `hdm-allow` comments (bad syntax, unknown rule
/// id, empty reason, or a stale allow suppressing nothing). Not
/// suppressible.
pub const ALLOW_SYNTAX: &str = "allow-syntax";

/// One finding, formatted `path:line:col: [rule-id] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub col: usize,
    pub msg: String,
}

impl Diagnostic {
    pub fn new(rule: &'static str, path: &str, line: usize, col: usize, msg: String) -> Self {
        Diagnostic {
            rule,
            path: path.to_string(),
            line,
            col,
            msg,
        }
    }

    /// One-line JSON object (JSONL record) for machine consumers.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"msg\":\"{}\"}}",
            json_escape(self.rule),
            json_escape(&self.path),
            self.line,
            self.col,
            json_escape(&self.msg)
        )
    }

    /// GitHub Actions error-annotation command for this finding.
    pub fn to_github(&self) -> String {
        // Workflow-command property/data escaping per the Actions spec.
        let esc = |s: &str| {
            s.replace('%', "%25")
                .replace('\r', "%0D")
                .replace('\n', "%0A")
        };
        format!(
            "::error file={},line={},col={}::[{}] {}",
            esc(&self.path),
            self.line,
            self.col,
            self.rule,
            esc(&self.msg)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.msg
        )
    }
}

/// Which rule families apply to a file, derived from its path.
#[derive(Debug, Clone, Default)]
pub struct FileScope {
    /// `no-panic-in-hot-path` applies.
    pub hot_path: bool,
    /// `atomic-ordering` applies (mpisim).
    pub mpisim: bool,
    /// `unbounded-blocking` applies (datampi + mpisim + the scheduler).
    pub blocking: bool,
    /// Lock facts are extracted for the workspace graph (all non-test
    /// production code — `lock-order-graph` joins across every crate).
    pub lock_extract: bool,
    /// `blocking-under-lock` applies (driver/sched/engine + datampi +
    /// mapred + mpisim — the crates whose threads contend on shared state).
    pub blocking_lock: bool,
    /// `obs-span-balance` applies (anywhere spans are opened).
    pub span_balance: bool,
    /// `swallowed-error` applies (same hot-path set as `blocking_lock`).
    pub swallowed: bool,
    /// `busy-poll` applies (the runtime: mpisim, datampi, the core
    /// scheduler/stream/engine/driver, and the server).
    pub busy_poll: bool,
    /// File IS the conf registry — exempt from `conf-key-registry`.
    pub conf_registry: bool,
    /// Whole file is test/bench/example code.
    pub test_file: bool,
    /// Fixture mode: run exactly this rule with all scope gates forced on.
    pub only_rule: Option<&'static str>,
}

/// Derive a [`FileScope`] from a workspace-relative path (with `/`
/// separators).
pub fn scope_for(rel: &str) -> FileScope {
    // Fixture files (crates/analyze/tests/fixtures/<rule-id>/**.rs) exercise
    // exactly the rule named by their directory, with path gates forced on.
    if let Some(idx) = rel.find("tests/fixtures/") {
        let tail = &rel[idx + "tests/fixtures/".len()..];
        if let Some(dir) = tail.split('/').next() {
            if let Some((id, _)) = RULES.iter().find(|(id, _)| *id == dir) {
                return FileScope {
                    hot_path: true,
                    mpisim: true,
                    blocking: true,
                    lock_extract: true,
                    blocking_lock: true,
                    span_balance: true,
                    swallowed: true,
                    busy_poll: true,
                    conf_registry: false,
                    test_file: false,
                    only_rule: Some(id),
                };
            }
        }
    }

    let in_dir = |d: &str| rel.contains(d);
    let test_file = rel
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    // Crates whose threads contend on shared locks while also talking to
    // channels/workers: the driver+scheduler+engine, the comm layer, the
    // mapred executors, and the simulator.
    let contended = in_dir("crates/datampi/src/")
        || in_dir("crates/mpisim/src/")
        || in_dir("crates/mapred/src/")
        || in_dir("crates/server/src/")
        || in_dir("crates/core/src/engine/")
        || rel.ends_with("crates/core/src/driver.rs")
        || rel.ends_with("crates/core/src/sched.rs")
        || rel.ends_with("crates/core/src/stream.rs");
    FileScope {
        hot_path: in_dir("crates/datampi/src/")
            || in_dir("crates/mpisim/src/")
            || in_dir("crates/faults/src/")
            || in_dir("crates/mapred/src/")
            || in_dir("crates/obs/src/")
            || in_dir("crates/server/src/")
            || in_dir("crates/core/src/engine/")
            || rel.ends_with("crates/core/src/driver.rs")
            || rel.ends_with("crates/core/src/sched.rs")
            || rel.ends_with("crates/core/src/stream.rs")
            // PR 10: the vectorized kernels run per batch on the scan
            // hot path — a panic there takes down a map task.
            || rel.ends_with("crates/core/src/batch.rs")
            || rel.ends_with("crates/common/src/sortkey.rs")
            || rel.ends_with("crates/common/src/stats.rs"),
        mpisim: in_dir("crates/mpisim/src/"),
        // The stage scheduler's dispatch loop blocks on worker channels
        // just like the comm layer does, so it is in scope since PR 6;
        // the pipelined stream's condvar waits joined in PR 7, and the
        // serving layer's admission gate in PR 8.
        blocking: in_dir("crates/datampi/src/")
            || in_dir("crates/mpisim/src/")
            || in_dir("crates/server/src/")
            || rel.ends_with("crates/core/src/sched.rs")
            || rel.ends_with("crates/core/src/stream.rs"),
        lock_extract: !test_file,
        blocking_lock: contended,
        span_balance: true,
        // PR 9 widened this beyond the contended set to the rest of the
        // cancellation spine: a silently dropped Result on a cancel path
        // (token wiring, recovery backoff) turns "cancel" into "hang" —
        // the error that would have explained the stall never surfaces.
        swallowed: contended
            || rel.ends_with("crates/common/src/cancel.rs")
            || in_dir("crates/faults/src/"),
        // PR 12: every thread these files park belongs to a query in
        // flight; mapred's waves hold no parked threads to speak of.
        busy_poll: contended && !in_dir("crates/mapred/src/"),
        conf_registry: rel.ends_with("common/src/conf.rs"),
        test_file,
        only_rule: None,
    }
}

/// One file handed to the two-phase driver: workspace-relative path (used
/// for scoping and diagnostics) plus its source text.
pub struct SourceFile {
    pub rel: String,
    pub src: String,
}

/// Check one file's source. Equivalent to [`check_sources`] on a
/// single-file workspace; cross-file joins degenerate to intra-file ones.
pub fn check_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    check_sources(&[SourceFile {
        rel: rel.to_string(),
        src: src.to_string(),
    }])
}

/// The two-phase analysis driver.
///
/// Phase 1 (per file): lex, locate test/tags regions, run the per-file
/// rules, and extract lock and conf-key facts. Phase 2 (workspace): union
/// the declared lock names, resolve `.read()`/`.write()` acquisition
/// candidates against them, run `blocking-under-lock` over each file's
/// resolved guard ranges, run the `lock-order-graph` cycle pass over all
/// files' acquisition chains joined on lock identity, and flag registry
/// keys that no file's non-test code reads. Suppressions are applied last so that
/// allows can target phase-2 findings too — and so the driver knows which
/// allows suppressed nothing (stale) this run.
pub fn check_sources(files: &[SourceFile]) -> Vec<Diagnostic> {
    struct Analyzed {
        scope: FileScope,
        lexed: lexer::Lexed,
        test_regions: Vec<LineRange>,
        tags_regions: Vec<LineRange>,
        lock_facts: rules::locks::LockFacts,
        key_facts: rules::conf_keys::KeyFacts,
        diags: Vec<Diagnostic>,
    }

    // ---- Phase 1: per-file passes + lock-fact extraction.
    let mut analyzed: Vec<Analyzed> = Vec::with_capacity(files.len());
    for f in files {
        let scope = scope_for(&f.rel);
        let lexed = lexer::lex(&f.src);
        let test_regions = find_test_regions(&lexed.tokens);
        let tags_regions = find_tags_regions(&lexed.tokens);
        let mut diags = Vec::new();
        let mut lock_facts = rules::locks::LockFacts::default();
        let mut key_facts = rules::conf_keys::KeyFacts::default();
        {
            let ctx = Ctx {
                rel: &f.rel,
                tokens: &lexed.tokens,
                test_regions: &test_regions,
                tags_regions: &tags_regions,
                test_file: scope.test_file,
            };
            let forced = scope.only_rule.is_some();
            let run = |id: &str| scope.only_rule.is_none_or(|only| only == id);

            if run(rules::no_panic::ID) && (scope.hot_path || forced) {
                rules::no_panic::check(&ctx, &mut diags);
            }
            if run(rules::conf_keys::ID) {
                if !scope.conf_registry {
                    rules::conf_keys::check(&ctx, &mut diags);
                }
                key_facts = rules::conf_keys::key_facts(&ctx, scope.conf_registry || forced);
            }
            if run(rules::tag_registry::ID) {
                rules::tag_registry::check(&ctx, &mut diags);
            }
            if run(rules::atomic_ordering::ID) && (scope.mpisim || forced) {
                rules::atomic_ordering::check(&ctx, &mut diags);
            }
            if run(rules::unbounded_blocking::ID) && (scope.blocking || forced) {
                rules::unbounded_blocking::check(&ctx, &mut diags);
            }
            if run(rules::span_balance::ID) && (scope.span_balance || forced) {
                rules::span_balance::check(&ctx, &mut diags);
            }
            if run(rules::swallowed_error::ID) && (scope.swallowed || forced) {
                rules::swallowed_error::check(&ctx, &mut diags);
            }
            if run(rules::busy_poll::ID) && (scope.busy_poll || forced) {
                rules::busy_poll::check(&ctx, &mut diags);
            }
            if (scope.lock_extract && !scope.test_file) || forced {
                lock_facts = rules::locks::extract(&ctx);
            }
        }
        analyzed.push(Analyzed {
            scope,
            lexed,
            test_regions,
            tags_regions,
            lock_facts,
            key_facts,
            diags,
        });
    }

    // ---- Phase 2: workspace passes over the joined lock facts.
    let known: BTreeSet<String> = analyzed
        .iter()
        .flat_map(|a| a.lock_facts.decls.iter().cloned())
        .collect();
    for a in analyzed.iter_mut() {
        a.lock_facts.resolve(&known);
    }

    for (f, a) in files.iter().zip(analyzed.iter_mut()) {
        let forced = a.scope.only_rule.is_some();
        let run = a
            .scope
            .only_rule
            .is_none_or(|only| only == rules::blocking_under_lock::ID);
        if run && (a.scope.blocking_lock || forced) {
            let ctx = Ctx {
                rel: &f.rel,
                tokens: &a.lexed.tokens,
                test_regions: &a.test_regions,
                tags_regions: &a.tags_regions,
                test_file: a.scope.test_file,
            };
            rules::blocking_under_lock::check(&ctx, &a.lock_facts, &mut a.diags);
        }
    }

    let cycle_diags = {
        let file_facts: Vec<rules::lock_order::FileFacts<'_>> = files
            .iter()
            .zip(analyzed.iter())
            .map(|(f, a)| rules::lock_order::FileFacts {
                rel: &f.rel,
                facts: &a.lock_facts,
                report: a
                    .scope
                    .only_rule
                    .is_none_or(|only| only == rules::lock_order::ID),
            })
            .collect();
        rules::lock_order::check_workspace(&file_facts)
    };
    for (fi, d) in cycle_diags {
        analyzed[fi].diags.push(d);
    }

    // A registry key is read if any file's non-test code names it.
    let key_reads: BTreeSet<String> = analyzed
        .iter()
        .flat_map(|a| a.key_facts.reads.iter().cloned())
        .collect();
    for (f, a) in files.iter().zip(analyzed.iter_mut()) {
        rules::conf_keys::check_unread(&f.rel, &a.key_facts, &key_reads, &mut a.diags);
    }

    // ---- Suppressions + allow audit, per file.
    let mut out = Vec::new();
    for (f, a) in files.iter().zip(analyzed) {
        let mut diags = a.diags;
        let allows = &a.lexed.allows;
        // An allow on line L covers findings for its rule on line L
        // (trailing comment) or line L+1 (comment above). Track which
        // allows actually fired so stale ones can be reported.
        let mut used = vec![false; allows.len()];
        diags.retain(|d| {
            let mut suppressed = false;
            for (i, al) in allows.iter().enumerate() {
                if al.rule == d.rule && (al.line == d.line || al.line + 1 == d.line) {
                    used[i] = true;
                    suppressed = true;
                }
            }
            !suppressed
        });

        // Malformed allows are findings in their own right.
        for bad in &a.lexed.malformed_allows {
            diags.push(Diagnostic::new(
                ALLOW_SYNTAX,
                &f.rel,
                bad.line,
                1,
                format!(
                    "malformed hdm-allow comment ({}); expected `// hdm-allow(rule-id): reason`",
                    bad.detail
                ),
            ));
        }
        for (i, allow) in allows.iter().enumerate() {
            if !RULES.iter().any(|(id, _)| *id == allow.rule) {
                diags.push(Diagnostic::new(
                    ALLOW_SYNTAX,
                    &f.rel,
                    allow.line,
                    1,
                    format!("hdm-allow references unknown rule `{}`", allow.rule),
                ));
            } else if !used[i] {
                diags.push(Diagnostic::new(
                    ALLOW_SYNTAX,
                    &f.rel,
                    allow.line,
                    1,
                    format!(
                        "hdm-allow({}) suppresses nothing on this or the next line — \
                         stale suppression, remove it (or move it to the finding it \
                         was meant to cover)",
                        allow.rule
                    ),
                ));
            }
        }

        out.extend(diags);
    }

    out.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    out
}

/// Find `#[test]` / `#[cfg(test)]` item bodies as line ranges. The range
/// starts at the attribute so helper tokens on the signature line are
/// covered too.
fn find_test_regions(toks: &[Token]) -> Vec<LineRange> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        // Scan the attribute body for an ident `test` (covers `#[test]`,
        // `#[cfg(test)]`, `#[cfg(any(test, ..))]`).
        let mut depth = 1;
        let mut j = i + 2;
        let mut is_test = false;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
            } else if toks[j].is_ident("test") {
                is_test = true;
            }
            j += 1;
        }
        if !is_test {
            i = j;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = j;
        while k < toks.len()
            && toks[k].is_punct('#')
            && toks.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut d = 1;
            k += 2;
            while k < toks.len() && d > 0 {
                if toks[k].is_punct('[') {
                    d += 1;
                } else if toks[k].is_punct(']') {
                    d -= 1;
                }
                k += 1;
            }
        }
        // The item body is the next `{ .. }`; `;` means an out-of-line item
        // (e.g. `#[cfg(test)] mod tests;`) with nothing to mark here.
        while k < toks.len() && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
            k += 1;
        }
        if k < toks.len() && toks[k].is_punct('{') {
            let end = match_brace(toks, k);
            regions.push((attr_line, toks[end.min(toks.len() - 1)].line));
            i = end + 1;
        } else {
            i = k + 1;
        }
    }
    regions
}

/// Find `mod tags { .. }` bodies as line ranges.
fn find_tags_regions(toks: &[Token]) -> Vec<LineRange> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_ident("mod") && toks[i + 1].is_ident("tags") && toks[i + 2].is_punct('{') {
            let end = match_brace(toks, i + 2);
            regions.push((toks[i].line, toks[end.min(toks.len() - 1)].line));
            i = end + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Index of the `}` matching the `{` at `open` (or the last token index if
/// unbalanced).
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Recursively collect `.rs` files under `root`, skipping build output,
/// vendored stubs, the checker's own fixtures, and VCS metadata.
pub fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let skip_dirs = ["target", "third_party", ".git", "fixtures"];
    if root.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(root)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if skip_dirs.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Check a set of files or directories as ONE workspace (the cross-file
/// passes join facts across everything collected here). Paths in
/// diagnostics are made relative to `base` when possible.
pub fn check_paths(base: &Path, paths: &[PathBuf]) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for p in paths {
        collect_rs_files(p, &mut files)?;
    }
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let rel = file
            .strip_prefix(base)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&file)?;
        sources.push(SourceFile { rel, src });
    }
    Ok(check_sources(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_mods_and_test_fns() {
        let src = r#"
fn hot() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = "x".parse::<u32>().unwrap(); }
}
"#;
        let lexed = lexer::lex(src);
        let regions = find_test_regions(&lexed.tokens);
        assert!(!regions.is_empty());
        let (s, e) = regions[0];
        assert!(s <= 4 && e >= 8, "region {s}..{e} should cover the mod");
    }

    #[test]
    fn allows_suppress_same_and_next_line() {
        let rel = "crates/mpisim/src/endpoint.rs";
        let src = "
pub fn f(v: &[u8]) -> u8 {
    // hdm-allow(no-panic-in-hot-path): bounds established by caller
    let a = v[0];
    let b = v[1]; // hdm-allow(no-panic-in-hot-path): same-line form
    a + b
}
";
        let diags = check_source(rel, src);
        assert!(
            diags.is_empty(),
            "both indexing sites should be suppressed: {diags:?}"
        );
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let diags = check_source(
            "crates/common/src/lib.rs",
            "// hdm-allow(not-a-rule): whatever\nfn f() {}\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, ALLOW_SYNTAX);
    }

    #[test]
    fn stale_allow_is_flagged() {
        // A well-formed allow for a real rule that suppresses nothing is
        // itself a finding — dead suppressions hide future regressions.
        let diags = check_source(
            "crates/common/src/lib.rs",
            "// hdm-allow(tag-registry): the finding this covered is long gone\nfn f() {}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, ALLOW_SYNTAX);
        assert!(diags[0].msg.contains("stale"), "{}", diags[0].msg);
    }

    #[test]
    fn live_allow_is_not_stale() {
        let rel = "crates/mpisim/src/endpoint.rs";
        let src = "
pub fn f(v: &[u8]) -> u8 {
    // hdm-allow(no-panic-in-hot-path): bounds established by caller
    v[0]
}
";
        let diags = check_source(rel, src);
        assert!(
            diags.is_empty(),
            "a used allow must not be stale: {diags:?}"
        );
    }

    #[test]
    fn scoping_limits_panic_rule_to_hot_paths() {
        let src = "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
        assert!(check_source("crates/mpisim/src/endpoint.rs", src)
            .iter()
            .any(|d| d.rule == rules::no_panic::ID));
        // The normalized-key encoder sits on every ReduceSink emit, so it
        // is hot-path too.
        assert!(check_source("crates/common/src/sortkey.rs", src)
            .iter()
            .any(|d| d.rule == rules::no_panic::ID));
        // Histogram backs obs timers on the shuffle path, and the obs
        // crate itself is called from every instrumented hot loop.
        assert!(check_source("crates/common/src/stats.rs", src)
            .iter()
            .any(|d| d.rule == rules::no_panic::ID));
        assert!(check_source("crates/obs/src/metrics.rs", src)
            .iter()
            .any(|d| d.rule == rules::no_panic::ID));
        // Fault-plan decisions run inside send/recv loops and recovery
        // supervisors — a panic there defeats the recovery machinery.
        assert!(check_source("crates/faults/src/lib.rs", src)
            .iter()
            .any(|d| d.rule == rules::no_panic::ID));
        // The vectorized kernels run once per 1024-row batch on every
        // columnar scan — a panic there takes down the map task.
        assert!(check_source("crates/core/src/batch.rs", src)
            .iter()
            .any(|d| d.rule == rules::no_panic::ID));
        // The stage scheduler dispatches every query's stages; a panic
        // there strands in-flight workers mid-query.
        assert!(check_source("crates/core/src/sched.rs", src)
            .iter()
            .any(|d| d.rule == rules::no_panic::ID));
        // The engine is a directory of files since PR 15 (planner, map
        // and reduce pipelines, sink, the two adapters): every one of
        // them runs inside map/reduce tasks.
        for file in ["mod", "plan", "map", "reduce", "sink", "hadoop", "datampi"] {
            let rel = format!("crates/core/src/engine/{file}.rs");
            assert!(
                check_source(&rel, src)
                    .iter()
                    .any(|d| d.rule == rules::no_panic::ID),
                "{rel} is not in the hot-path scope"
            );
            let scope = scope_for(&rel);
            assert!(scope.blocking_lock && scope.swallowed && scope.busy_poll);
        }
        assert!(check_source("crates/workloads/src/zipf.rs", src).is_empty());
    }

    #[test]
    fn fixture_paths_force_single_rule() {
        let rel = "crates/analyze/tests/fixtures/no-panic-in-hot-path/fail.rs";
        let src =
            "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\nconst K: &str = \"hive.map.aggr\";\n";
        let diags = check_source(rel, src);
        assert!(diags.iter().any(|d| d.rule == rules::no_panic::ID));
        // conf-key-registry is NOT run in this fixture's scope.
        assert!(!diags.iter().any(|d| d.rule == rules::conf_keys::ID));
    }

    #[test]
    fn lock_order_cycle_detected_within_one_file() {
        let rel = "crates/core/src/engine/mod.rs";
        let src = "
pub fn forward(s: &S) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
    use_both(&a, &b);
}
pub fn backward(s: &S) {
    let b = s.beta.lock();
    let a = s.alpha.lock();
    use_both(&a, &b);
}
";
        let diags = check_source(rel, src);
        let cyc: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == rules::lock_order::ID)
            .collect();
        assert_eq!(cyc.len(), 1, "{diags:?}");
        assert!(cyc[0].msg.contains("alpha") && cyc[0].msg.contains("beta"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let rel = "crates/core/src/engine/mod.rs";
        let src = "
pub fn one(s: &S) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
    use_both(&a, &b);
}
pub fn two(s: &S) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
    use_both(&a, &b);
}
";
        let diags = check_source(rel, src);
        assert!(
            !diags.iter().any(|d| d.rule == rules::lock_order::ID),
            "{diags:?}"
        );
    }

    #[test]
    fn blocking_under_named_guard_is_flagged() {
        let rel = "crates/mapred/src/store.rs";
        let src = "
pub fn publish(s: &S, tx: &Sender<u64>) {
    let g = s.table.lock();
    tx.send(g.len() as u64);
}
";
        let diags = check_source(rel, src);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::blocking_under_lock::ID),
            "{diags:?}"
        );
    }

    #[test]
    fn blocking_after_temporary_guard_is_clean() {
        let rel = "crates/mapred/src/store.rs";
        let src = "
pub fn publish(s: &S, tx: &Sender<u64>) {
    let n = s.table.lock().len() as u64;
    tx.send(n);
}
";
        let diags = check_source(rel, src);
        assert!(
            !diags
                .iter()
                .any(|d| d.rule == rules::blocking_under_lock::ID),
            "the guard dies at the statement boundary: {diags:?}"
        );
    }

    #[test]
    fn rw_acquisitions_require_a_declared_lock() {
        // `.write()` on something never declared as a lock anywhere in the
        // workspace is io, not a guard — no blocking-under-lock finding.
        let rel = "crates/mapred/src/store.rs";
        let src = "
pub fn io_like(s: &S, tx: &Sender<u64>) {
    let g = s.sink.write();
    tx.send(1);
}
";
        let diags = check_source(rel, src);
        assert!(
            !diags
                .iter()
                .any(|d| d.rule == rules::blocking_under_lock::ID),
            "{diags:?}"
        );
        // Declare it a RwLock in the same workspace and the same source
        // becomes a finding.
        let decl = SourceFile {
            rel: "crates/mapred/src/lib.rs".into(),
            src: "pub struct S { pub sink: RwLock<Vec<u64>> }\n".into(),
        };
        let body = SourceFile {
            rel: rel.to_string(),
            src: src.to_string(),
        };
        let diags = check_sources(&[decl, body]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::blocking_under_lock::ID),
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostic_json_and_github_formats() {
        let d = Diagnostic::new(
            "tag-registry",
            "crates/x/src/lib.rs",
            3,
            7,
            "a \"b\"\nc".into(),
        );
        assert_eq!(
            d.to_json(),
            "{\"rule\":\"tag-registry\",\"path\":\"crates/x/src/lib.rs\",\
             \"line\":3,\"col\":7,\"msg\":\"a \\\"b\\\"\\nc\"}"
        );
        assert_eq!(
            d.to_github(),
            "::error file=crates/x/src/lib.rs,line=3,col=7::[tag-registry] a \"b\"%0Ac"
        );
    }
}
