//! The `experiments` command line refuses what it cannot run: a typo'd tag
//! or a gate run that compares nothing exits non-zero instead of passing
//! silently. Neither run executes a guard.

use std::path::PathBuf;
use std::process::{Command, Output};

/// An empty scratch directory, removed when dropped.
struct EmptyDir(PathBuf);

impl EmptyDir {
    fn new(name: &str) -> EmptyDir {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        EmptyDir(dir)
    }
}

impl Drop for EmptyDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn experiments(cwd: &EmptyDir, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(&cwd.0)
        .output()
        .expect("run the experiments bin")
}

#[test]
fn unknown_tag_exits_non_zero_and_lists_the_known_tags() {
    let cwd = EmptyDir::new("bench-cli-tag");
    for args in [&["e99"][..], &["--check-against", ".", "actvset"]] {
        let out = experiments(&cwd, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(stderr.contains("unknown experiment tag"), "{stderr}");
        assert!(
            stderr.contains("e1 e2") && stderr.contains("coldstart net"),
            "{stderr}"
        );
    }
    assert_eq!(std::fs::read_dir(&cwd.0).unwrap().count(), 0, "a guard ran");
}

#[test]
fn gate_exits_non_zero_when_it_compares_nothing() {
    let cwd = EmptyDir::new("bench-cli-gate");
    // No artifacts and no baselines: every guard's files are missing.
    let out = experiments(&cwd, &["--check-against", "."]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "empty gate exited 0");
    assert!(stderr.contains("missing fresh artifact"), "{stderr}");
    assert!(stderr.contains("no values compared"), "{stderr}");
    // A known tag that is not a guard selects nothing to compare.
    let out = experiments(&cwd, &["--check-against", ".", "e1"]);
    assert!(!out.status.success(), "gate over no guards exited 0");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no values compared"));
}
