//! The `repro` binary's command line: a known id runs and exits 0, an
//! unknown one runs nothing and exits non-zero, naming the valid ids.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_id_fails_and_lists_valid_ids() {
    let out = repro(&["fig2", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "nothing runs before the bad id is reported"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `bogus`"), "{stderr}");
    assert!(
        stderr.contains("fig2") && stderr.contains("confid"),
        "{stderr}"
    );
    assert!(!stderr.contains("DESIGN.md"), "{stderr}");
}

#[test]
fn known_id_succeeds() {
    let out = repro(&["fig2"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("=== fig2"));
}
