//! The `figures` binary's command line: an experiment name it does not know
//! is an error, not an empty run.

use std::process::Command;

#[test]
fn an_unknown_experiment_lists_the_names_and_exits_2() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_figures")).args(["sloc", "fig5"]).output().expect("figures runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing runs before the names are checked: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`fig5`"), "{stderr}");
    assert!(stderr.contains("fig2 jit fig3 fig4 tcp sloc"), "{stderr}");
}
