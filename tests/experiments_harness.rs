//! End-to-end checks of the experiment harness: every registered experiment
//! runs at a tiny grid, produces a non-empty report, and writes valid CSVs.

use contention_experiments::figures::{registry, CsvBlock};
use contention_experiments::options::Options;
use std::path::PathBuf;

fn tiny_options() -> Options {
    Options {
        trials: Some(3),
        threads: Some(2),
        ..Options::default()
    }
}

/// Every experiment in the registry runs to completion and says something.
#[test]
fn every_registered_experiment_runs() {
    let opts = tiny_options();
    for (name, _desc, runner) in registry() {
        let report = runner(&opts);
        assert!(!report.title.is_empty(), "{name}: empty title");
        assert!(
            report.body.lines().count() >= 2,
            "{name}: suspiciously short body: {}",
            report.body
        );
    }
}

/// CSV blocks round-trip to disk with coherent headers.
#[test]
fn csv_artifacts_are_written() {
    let opts = tiny_options();
    let dir: PathBuf = std::env::temp_dir().join(format!("repro-csv-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // fig3 exercises the Series writer; table1 has no CSV; fig13 exercises
    // the Rows writer.
    for name in ["fig3", "fig13"] {
        let (_, _, runner) = registry()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .expect("registered");
        let report = runner(&opts);
        assert!(!report.csv.is_empty(), "{name} should emit CSV");
        report.write_csv(&dir).expect("write CSVs");
        for block in &report.csv {
            let file = match block {
                CsvBlock::Series { name, .. } => dir.join(format!("{name}.csv")),
                CsvBlock::Rows { name, .. } => dir.join(format!("{name}.csv")),
            };
            let text = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| panic!("missing {}: {e}", file.display()));
            let mut lines = text.lines();
            let header = lines.next().expect("header row");
            let cols = header.split(',').count();
            assert!(cols >= 3, "{name}: too few columns in {header:?}");
            for (i, line) in lines.enumerate() {
                assert_eq!(
                    line.split(',').count(),
                    cols,
                    "{name}: row {i} arity mismatch"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The percent lines that carry the paper's headline claims are present in
/// the figure bodies.
#[test]
fn headline_percent_lines_exist() {
    let opts = tiny_options();
    for name in ["fig3", "fig7", "fig19"] {
        let (_, _, runner) = registry()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .expect("registered");
        let report = runner(&opts);
        assert!(
            report.body.contains("vs BEB"),
            "{name} lost its percent line: {}",
            report.body
        );
    }
}

/// One `Options` shared across the experiments whose sweeps coincide (the
/// way `repro all` runs them) reproduces a fresh run of each experiment
/// byte for byte: report body and every CSV and JSON artifact.
#[test]
fn shared_sweeps_match_per_experiment_runs_byte_for_byte() {
    const SHARING: [&str; 13] = [
        "table2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "table3", "fig18", "fig19",
    ];
    let root = std::env::temp_dir().join(format!("repro-shared-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (shared_dir, single_dir) = (root.join("shared"), root.join("single"));
    let shared = tiny_options();
    let mut ran = 0;
    for (name, _, runner) in registry() {
        if !SHARING.contains(&name) {
            continue;
        }
        let from_shared = runner(&shared);
        let from_fresh = runner(&tiny_options());
        assert_eq!(from_shared.body, from_fresh.body, "{name}: body");
        for (report, dir) in [(&from_shared, &shared_dir), (&from_fresh, &single_dir)] {
            report.write_csv(dir).expect("write CSVs");
            report.write_json(dir).expect("write JSON");
        }
        ran += 1;
    }
    assert_eq!(ran, SHARING.len(), "an experiment left the registry");
    let listing = |dir: &PathBuf| {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("artifacts written")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        files.sort();
        files
    };
    let files = listing(&single_dir);
    assert!(!files.is_empty());
    assert_eq!(listing(&shared_dir), files);
    for file in &files {
        let read = |dir: &PathBuf| std::fs::read(dir.join(file)).expect("artifact");
        assert!(
            read(&shared_dir) == read(&single_dir),
            "{file:?} differs between the shared and the fresh run"
        );
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}
