//! Seeded violation for the workspace half of `conf-key-registry`: a
//! registry key that no non-test code reads. Setting it would change
//! nothing, and a test that sets it does not count as a reader. (Key
//! values avoid the conf namespaces: this file is not the registry.)

/// A key whose code path was deleted.
pub const KEY_RETIRED: &str = "demo.retired";
/// Read below, so not flagged.
pub const KEY_PIPELINED: &str = "demo.pipelined";

pub fn pipelined(conf: &std::collections::HashMap<&str, &str>) -> bool {
    conf.get(KEY_PIPELINED) == Some(&"true")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_key_can_still_be_set() {
        let conf = std::collections::HashMap::from([(KEY_RETIRED, "true")]);
        assert!(!pipelined(&conf));
    }
}
