//! Kill-and-resume against the real `sfbench` binary: a run SIGKILLed while
//! its checkpoint journal is being written must, when the same command is
//! rerun, restore the journalled jobs, compute the rest and emit exactly the
//! bytes of an uninterrupted run (the golden fig10 fixture).

use std::path::PathBuf;
use std::process::Command;

const GOLDEN: &str = include_str!("golden/fig10_saturation.quick.csv");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-kill-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[test]
fn a_killed_run_resumes_from_its_journal_to_the_golden_bytes() {
    let dir = temp_dir("fig10");
    let csv = dir.join("fig10.csv");
    let journal = dir.join("fig10.csv.journal");
    let run = || {
        let mut command = Command::new(env!("CARGO_BIN_EXE_sfbench"));
        command.args([
            "run",
            "fig10",
            "--quick",
            "--quiet",
            "--csv",
            csv.to_str().unwrap(),
        ]);
        command
    };

    // Wait until the journal holds at least two lines, then kill -9.
    let mut child = run().spawn().expect("spawn sfbench run");
    let mut journalled = false;
    for _ in 0..600 {
        if let Ok(text) = std::fs::read_to_string(&journal) {
            if text.lines().count() >= 2 {
                journalled = true;
                break;
            }
        }
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let finished = child.try_wait().expect("try_wait").is_some();
    child.kill().ok();
    child.wait().ok();
    if !finished {
        assert!(journalled, "the run never journalled a job before the kill");
        assert!(!csv.exists(), "kill came too late; CSV already written");
        assert!(journal.exists(), "the killed run must leave its journal");
    }

    // The same command restores the journalled jobs and completes the rest.
    let status = run().status().expect("spawn sfbench rerun");
    assert!(status.success(), "rerun after the kill failed");
    let resumed = std::fs::read_to_string(&csv).expect("read resumed CSV");
    assert_eq!(
        resumed, GOLDEN,
        "kill + resume differs from the serial golden"
    );
    assert!(!journal.exists(), "journal must be removed after success");
    let _ = std::fs::remove_dir_all(&dir);
}
