//! Command-line contract of the `repro` binary.

use std::process::Command;

/// An unknown section is a usage error: exit status 2, the known
/// sections on stderr, and no JSON written.
#[test]
fn unknown_section_exits_2_and_lists_the_sections() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("out.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table4", "no_such_section", "--json"])
        .arg(&json)
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_section"), "stderr: {stderr}");
    for section in ["figure2", "table4", "serve_churn", "all"] {
        assert!(stderr.contains(section), "missing {section} in: {stderr}");
    }
    assert!(!json.exists(), "a rejected invocation must write nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}
