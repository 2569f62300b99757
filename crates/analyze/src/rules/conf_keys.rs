//! `conf-key-registry`: every Hive/DataMPI configuration key must be
//! declared exactly once, as a `KEY_*` constant in `hdm-common::conf`.
//! Scattering raw key strings through the codebase is how typo'd keys
//! silently fall back to defaults (the classic stringly-typed-conf bug), so
//! any string literal that looks like a conf key — it starts with one of
//! the known namespaces — is flagged outside the registry file.
//!
//! The rule applies to test code too: a test probing `"hive.exec.pipelined"`
//! by hand would keep passing after the key is renamed in the registry,
//! while the production path breaks.
//!
//! Its workspace (phase-2) half checks the registry from the other side:
//! every `pub const KEY_*` declared there must be named by some non-test
//! code besides its own declaration (an accessor in `conf.rs` counts). A
//! key nothing reads is a knob that silently does nothing when set.

use super::Ctx;
use crate::lexer::Kind;
use crate::Diagnostic;
use std::collections::BTreeSet;

pub const ID: &str = "conf-key-registry";
pub const DESCRIPTION: &str =
    "conf-key string literals (hive./datampi./mapred./dfs./io.) must be KEY_* \
     constants in hdm-common::conf, not inline strings; every KEY_* there must \
     be read by non-test code";

// hdm-allow(conf-key-registry): this is the rule's own namespace table, not a conf lookup
const PREFIXES: &[&str] = &["hive.", "datampi.", "mapred.", "dfs.", "io."];

pub fn check(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for tok in ctx.tokens {
        if tok.kind != Kind::Str {
            continue;
        }
        if let Some(prefix) = PREFIXES.iter().find(|p| tok.text.starts_with(**p)) {
            out.push(Diagnostic::new(
                ID,
                ctx.rel,
                tok.line,
                tok.col,
                format!(
                    "conf key \"{}\" (namespace `{}`) must be referenced via a KEY_* constant from hdm-common::conf",
                    tok.text, prefix
                ),
            ));
        }
    }
}

/// What one file says about `KEY_*` constants, for the workspace pass.
#[derive(Debug, Default)]
pub struct KeyFacts {
    /// `pub const KEY_*` declarations in the registry: `(name, line, col)`.
    pub decls: Vec<(String, usize, usize)>,
    /// `KEY_*` names that non-test code mentions outside a declaration.
    pub reads: BTreeSet<String>,
}

/// Phase 1: collect this file's key declarations (only when it is the
/// registry) and non-test key references.
pub fn key_facts(ctx: &Ctx<'_>, registry: bool) -> KeyFacts {
    let mut facts = KeyFacts::default();
    let text = |i: usize| ctx.tokens.get(i).map(|t| t.text.as_str());
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if tok.kind != Kind::Ident || !tok.text.starts_with("KEY_") || ctx.in_test(tok.line) {
            continue;
        }
        let declared = i >= 2 && text(i - 1) == Some("const") && text(i - 2) == Some("pub");
        if !declared {
            facts.reads.insert(tok.text.clone());
        } else if registry {
            facts.decls.push((tok.text.clone(), tok.line, tok.col));
        }
    }
    facts
}

/// Phase 2: flag each declaration of `facts` that no file's `reads` has.
pub fn check_unread(
    rel: &str,
    facts: &KeyFacts,
    reads: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    for (name, line, col) in &facts.decls {
        if !reads.contains(name) {
            out.push(Diagnostic::new(
                ID,
                rel,
                *line,
                *col,
                format!(
                    "conf key `{name}` is declared but no non-test code reads it — \
                     delete it, or read it where it is meant to take effect"
                ),
            ));
        }
    }
}
