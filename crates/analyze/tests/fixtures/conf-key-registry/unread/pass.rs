//! Clean registry: every key is read by non-test code — here by an
//! accessor next to its declaration, as in hdm-common::conf.

/// Whether intermediates stream between stages.
pub const KEY_PIPELINED: &str = "demo.pipelined";
/// Not a registry key (no `KEY_` prefix), so nothing has to read it.
pub const DEFAULT_BUFFER: usize = 4;

pub fn pipelined(conf: &std::collections::HashMap<&str, &str>) -> bool {
    conf.get(KEY_PIPELINED) != Some(&"false")
}
