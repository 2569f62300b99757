//! The lint rules. Each rule is a function over a [`Ctx`] that pushes
//! [`crate::Diagnostic`]s; the driver in `lib.rs` decides which rules apply
//! to which files and applies `hdm-allow` suppressions afterwards.

pub mod atomic_ordering;
pub mod blocking_under_lock;
pub mod busy_poll;
pub mod conf_keys;
pub mod lock_order;
pub mod locks;
pub mod no_panic;
pub mod span_balance;
pub mod swallowed_error;
pub mod tag_registry;
pub mod unbounded_blocking;

use crate::lexer::Token;

/// A contiguous line range `[start, end]`, inclusive on both ends.
pub type LineRange = (usize, usize);

/// Per-file context shared by all rules.
pub struct Ctx<'a> {
    /// Workspace-relative path with `/` separators (used in diagnostics).
    pub rel: &'a str,
    pub tokens: &'a [Token],
    /// Line ranges covered by `#[test]` functions or `#[cfg(test)]` items.
    pub test_regions: &'a [LineRange],
    /// Line ranges of `mod tags { .. }` bodies.
    pub tags_regions: &'a [LineRange],
    /// Whole file is test/bench/example code (lives under `tests/`,
    /// `benches/`, or `examples/`).
    pub test_file: bool,
}

impl Ctx<'_> {
    /// Is this line inside test code?
    pub fn in_test(&self, line: usize) -> bool {
        self.test_file || in_ranges(self.test_regions, line)
    }

    /// Is this line inside a `mod tags { .. }` body?
    pub fn in_tags(&self, line: usize) -> bool {
        in_ranges(self.tags_regions, line)
    }
}

fn in_ranges(ranges: &[LineRange], line: usize) -> bool {
    ranges.iter().any(|&(s, e)| s <= line && line <= e)
}
