//! End-to-end tests of the `decluster` command-line tool.

use std::process::Command;

fn decluster(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_decluster"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn help_lists_all_commands() {
    let (out, _, ok) = decluster(&["help"]);
    assert!(ok);
    for cmd in ["designs", "layout", "check", "simulate"] {
        assert!(out.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn designs_finds_the_paper_design() {
    let (out, _, ok) = decluster(&["designs", "21", "5"]);
    assert!(ok);
    assert!(out.contains("b=21, v=21, k=5, r=5, lambda=1"), "{out}");
}

#[test]
fn designs_falls_back_to_closest_alpha() {
    // The paper's infeasible 41-disk G=5 example.
    let (out, _, ok) = decluster(&["designs", "41", "5"]);
    assert!(ok);
    assert!(out.contains("no direct design"), "{out}");
    assert!(out.contains("closest feasible"), "{out}");
}

#[test]
fn layout_check_and_vulnerability() {
    let (out, _, ok) = decluster(&["layout", "21", "4", "--check", "--vulnerability"]);
    assert!(ok);
    assert!(out.contains("alpha = 0.150"), "{out}");
    assert!(out.contains("criteria 1-3: hold"), "{out}");
    assert!(out.contains("210/210 pairs fatal"), "{out}");
}

#[test]
fn export_round_trips_through_check() {
    let (table, stderr, ok) = decluster(&["layout", "21", "4", "--export"]);
    assert!(ok);
    assert!(
        stderr.contains("layout bibd:c21g4: C = 21"),
        "summary on stderr: {stderr}"
    );
    assert!(table.starts_with("decluster-layout v1"), "clean stdout");
    let dir = std::env::temp_dir().join(format!("decluster-cli-export-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g4.layout");
    std::fs::write(&path, &table).unwrap();
    let (out, _, ok) = decluster(&["check", path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(ok);
    assert!(out.contains("criteria 1-3: hold"), "{out}");
}

#[test]
fn layout_accepts_registry_specs() {
    // The PRIME generator needs no appendix table and passes criteria.
    let (out, _, ok) = decluster(&["layout", "prime:c11g4", "--check"]);
    assert!(ok, "{out}");
    assert!(out.contains("layout prime:c11g4: C = 11, G = 4"), "{out}");
    assert!(out.contains("criteria 1-3: hold"), "{out}");
}

#[test]
fn layout_check_exits_nonzero_on_violation() {
    // Chained mirroring violates criterion 2 by design, and --check is
    // a gate scripts rely on.
    let (out, err, ok) = decluster(&["layout", "chained:c8", "--check"]);
    assert!(!ok, "{out}");
    assert!(out.contains("criteria 1-3: VIOLATED"), "{out}");
    assert!(err.contains("layout criteria violated"), "{err}");
}

#[test]
fn check_rejects_garbage() {
    let dir = std::env::temp_dir().join(format!("decluster-cli-garbage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.layout");
    std::fs::write(&path, "not a layout\n").unwrap();
    let (_, err, ok) = decluster(&["check", path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!ok);
    assert!(err.contains("bad magic"), "{err}");
}

#[test]
fn simulate_fault_free_and_rebuild() {
    let (out, _, ok) = decluster(&[
        "simulate",
        "--group",
        "4",
        "--cylinders",
        "30",
        "--seconds",
        "10",
        "--rate",
        "40",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("fault-free:"), "{out}");

    let (out, _, ok) = decluster(&[
        "simulate",
        "--group",
        "4",
        "--cylinders",
        "30",
        "--rate",
        "40",
        "--fail",
        "0",
        "--rebuild",
        "redirect",
        "--processes",
        "4",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("rebuilt disk 0 with redirect"), "{out}");
}

#[test]
fn unknown_command_fails_cleanly() {
    let (_, err, ok) = decluster(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
}

#[test]
fn unknown_flag_fails_cleanly() {
    let (_, err, ok) = decluster(&["layout", "21", "4", "--bogus"]);
    assert!(!ok);
    assert!(err.contains("unknown flag"), "{err}");
}
