//! Table III: productivity — how much *engine-specific* code the
//! plug-in needs. The paper reports ~0.3K changed lines to put DataMPI
//! under Hive (vs ~1.1K inherited + 2.6K refactored), thanks to the
//! engine boundary. This binary measures the same boundary in this
//! codebase: the DataMPI adapter, the Hadoop adapter, and the shared
//! compiler/operator code they both reuse.

use hdm_bench::print_table;

// Each adapter is a file of its own, so its line count cannot drift into
// a neighbour's when code moves; everything else under `engine/` is
// shared by both engines.
const HADOOP_ADAPTER: &str = include_str!("../../../core/src/engine/hadoop.rs");
const DATAMPI_ADAPTER: &str = include_str!("../../../core/src/engine/datampi.rs");
const SHARED_GLUE: [&str; 5] = [
    include_str!("../../../core/src/engine/mod.rs"),
    include_str!("../../../core/src/engine/plan.rs"),
    include_str!("../../../core/src/engine/map.rs"),
    include_str!("../../../core/src/engine/reduce.rs"),
    include_str!("../../../core/src/engine/sink.rs"),
];

/// Non-blank, non-comment lines above the file's unit-test module (the
/// measure DESIGN.md §20 and §22 use), so a row moves with the code it
/// names and not with the tests next to it.
fn code_lines(src: &str) -> usize {
    src.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("//")
        })
        .count()
}

fn main() {
    let hadoop = code_lines(HADOOP_ADAPTER);
    let datampi = code_lines(DATAMPI_ADAPTER);
    let shared: usize = SHARED_GLUE.iter().map(|s| code_lines(s)).sum();
    if hadoop == 0 || datampi == 0 {
        eprintln!("table03: an adapter counted 0 lines (Hadoop {hadoop}, DataMPI {datampi})");
        std::process::exit(1);
    }
    // Shared compiler/operator code reused verbatim by both engines.
    let compiler_loc: usize = [
        include_str!("../../../core/src/lexer.rs"),
        include_str!("../../../core/src/parser.rs"),
        include_str!("../../../core/src/ast.rs"),
        include_str!("../../../core/src/logical.rs"),
        include_str!("../../../core/src/physical.rs"),
        include_str!("../../../core/src/operators.rs"),
        include_str!("../../../core/src/expr.rs"),
    ]
    .iter()
    .map(|s| code_lines(s))
    .sum();

    print_table(
        "Table III: engine-plug-in productivity (non-comment lines)",
        &["component", "lines"],
        &[
            vec![
                "compiler + operators (shared by both engines)".into(),
                compiler_loc.to_string(),
            ],
            vec![
                "engine glue shared (splits, sinks, volumes)".into(),
                shared.to_string(),
            ],
            vec![
                "Hadoop adapter (ExecMapper/ExecReducer wiring)".into(),
                hadoop.to_string(),
            ],
            vec![
                "DataMPI adapter (DataMPICollector wiring)".into(),
                datampi.to_string(),
            ],
        ],
    );
    println!(
        "DataMPI-specific code: {datampi} lines ({:.1}% of the Hive layer) — the paper reports ~0.3K of ~30K",
        100.0 * datampi as f64 / (compiler_loc + shared + hadoop + datampi) as f64
    );
}
