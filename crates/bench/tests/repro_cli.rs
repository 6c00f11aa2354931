//! Command-line contract of the `repro` binary.

use std::process::Command;

/// A usage error — an unknown section, an unknown flag (whatever follows
/// it, so a stale invocation of a retired option fails loudly), or
/// `--json` without a path — exits with status 2, names the offending
/// argument and lists the known sections on stderr, and writes no JSON.
#[test]
fn unknown_section_exits_2_and_lists_the_sections() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("out.json");
    for (args, offending) in [
        (&["table4", "no_such_section"][..], "no_such_section"),
        (&["figure2", "--no-such-flag"], "--no-such-flag"),
        (&["figure2", "--workers", "notanumber"], "--workers"),
        (&["kernels", "--shards", "1,2"], "--shards"),
        (&["figure2", "--json"], "--json"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .arg("--json")
            .arg(&json)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(offending), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        for section in ["figure2", "table4", "kernels", "all"] {
            assert!(
                stderr.contains(section),
                "{args:?}: no {section} in {stderr}"
            );
        }
        assert!(!json.exists(), "{args:?}: a rejected invocation wrote JSON");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
