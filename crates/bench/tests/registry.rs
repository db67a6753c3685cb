//! Registry completeness and golden-artifact tests for the unified study
//! API.
//!
//! * Every artefact listed in the `experiments.rs` doc table — the eight
//!   paper artefacts plus the extended scenarios — must have a registered
//!   [`Study`] with a non-empty description, in the right registry group.
//! * `sfbench run <study> --quick --csv` must emit a CSV byte-identical to
//!   the golden fixture under `tests/golden/` (the paper goldens were
//!   captured before the PR-3 redesign; the scenario goldens pin the
//!   studies introduced with the fault-injection subsystem).
//! * A run resumed from a truncated (interrupted) checkpoint journal, on a
//!   different worker count, must produce the same bytes as an
//!   uninterrupted run.

use sf_bench::cli;
use sf_harness::PoolConfig;
use stringfigure::study::{execute, study_fingerprint, RunContext, Study, StudyRegistry};

#[test]
fn registry_covers_every_artefact_in_the_experiments_doc_table() {
    let source = include_str!("../../core/src/experiments.rs");
    let mut drivers = Vec::new();
    for line in source.lines() {
        let Some(rest) = line.trim_start().strip_prefix("//! | [`") else {
            continue;
        };
        let Some(end) = rest.find('`') else { continue };
        drivers.push(&rest[..end]);
    }
    assert_eq!(
        drivers.len(),
        11,
        "experiments.rs doc table should list the eight paper artefacts plus the three scenarios"
    );
    let paper = StudyRegistry::paper();
    let extended = StudyRegistry::extended();
    let registry = StudyRegistry::all();
    assert_eq!(registry.len(), paper.len() + extended.len());
    for driver in drivers {
        let study = registry
            .iter()
            .find(|s| s.driver() == driver)
            .unwrap_or_else(|| panic!("no registered study for experiments::{driver}"));
        assert!(
            !study.description().is_empty(),
            "study {} has an empty description",
            study.name()
        );
        assert!(
            !study.artefact().is_empty(),
            "study {} has an empty artefact",
            study.name()
        );
        // Scenario studies live in the extended group and only there;
        // everything else is a paper artefact and only that.
        let is_scenario = study.artefact().starts_with("Scenario:");
        assert_eq!(
            extended.get(study.name()).is_some(),
            is_scenario,
            "study {} is in the wrong registry group",
            study.name()
        );
        assert_eq!(
            paper.get(study.name()).is_some(),
            !is_scenario,
            "study {} is in the wrong registry group",
            study.name()
        );
    }
}

/// Runs `sfbench run <study> --quick --csv <tmp>` through the real CLI entry
/// point and returns the emitted CSV.
fn run_quick_csv(study: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("sfbench-golden-{study}-{}.csv", std::process::id()));
    let code = cli::main(vec![
        "run".into(),
        study.into(),
        "--quick".into(),
        "--no-resume".into(),
        "--csv".into(),
        path.to_str().unwrap().into(),
    ]);
    assert_eq!(code, 0, "sfbench run {study} failed");
    let csv = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    csv
}

#[test]
fn fig05_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig05"),
        include_str!("golden/fig05_surg_path_length.quick.csv")
    );
}

#[test]
fn fig08_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig08"),
        include_str!("golden/fig08_table02_configs.quick.csv")
    );
}

#[test]
fn fig10_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig10"),
        include_str!("golden/fig10_saturation.quick.csv")
    );
}

#[test]
fn fig09a_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig09a"),
        include_str!("golden/fig09a_hop_counts.quick.csv")
    );
}

#[test]
fn fig09b_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig09b"),
        include_str!("golden/fig09b_powergate_edp.quick.csv")
    );
}

#[test]
fn fig11_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig11"),
        include_str!("golden/fig11_latency_curves.quick.csv")
    );
}

#[test]
fn fig12_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig12"),
        include_str!("golden/fig12_workloads.quick.csv")
    );
}

#[test]
fn bisection_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("bisection"),
        include_str!("golden/bisection_bandwidth.quick.csv")
    );
}

#[test]
fn fault_resilience_quick_csv_matches_its_golden() {
    assert_eq!(
        run_quick_csv("fault_resilience"),
        include_str!("golden/fault_resilience.quick.csv")
    );
}

#[test]
fn adversarial_saturation_quick_csv_matches_its_golden() {
    assert_eq!(
        run_quick_csv("adversarial_saturation"),
        include_str!("golden/adversarial_saturation.quick.csv")
    );
}

#[test]
fn scaleout_2048_quick_csv_matches_its_golden() {
    assert_eq!(
        run_quick_csv("scaleout_2048"),
        include_str!("golden/scaleout_2048.quick.csv")
    );
}

#[test]
fn interrupted_fig08_run_resumes_bit_identically() {
    let pid = std::process::id();
    let journal = std::env::temp_dir().join(format!("sfbench-resume-{pid}.journal"));
    let csv = std::env::temp_dir().join(format!("sfbench-resume-{pid}.csv"));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&csv);

    let registry = StudyRegistry::paper();
    let study = registry.get("fig08").unwrap();

    // Reference: uninterrupted run, no checkpointing.
    let reference = study.run(&RunContext::new().quick(true)).unwrap();

    // Full serial run with a journal, without `execute`'s cleanup — then
    // truncate the journal to the header plus five completed jobs,
    // simulating a kill partway through.
    let first = RunContext::new()
        .quick(true)
        .with_pool(PoolConfig::serial())
        .with_checkpoint(&journal);
    first
        .resume_checkpoint(study_fingerprint(study, &first))
        .unwrap();
    let _ = study.run(&first).unwrap();
    let text = std::fs::read_to_string(&journal).unwrap();
    let kept: Vec<&str> = text.lines().take(6).collect();
    std::fs::write(&journal, format!("{}\n", kept.join("\n"))).unwrap();

    // Resume on a different worker count: restores the five
    // journalled jobs, recomputes the rest, and must emit exactly the
    // reference bytes before removing the journal.
    let resumed_ctx = RunContext::new()
        .quick(true)
        .with_pool(PoolConfig::threads(4))
        .with_checkpoint(&journal)
        .with_csv(&csv);
    let resumed = execute(study, &resumed_ctx).unwrap();
    assert_eq!(resumed, reference);
    assert_eq!(std::fs::read_to_string(&csv).unwrap(), reference.to_csv());
    assert!(!journal.exists(), "journal must be removed after success");
    std::fs::remove_file(&csv).unwrap();
}

#[test]
fn old_binary_names_resolve_as_aliases() {
    let registry = StudyRegistry::paper();
    for (alias, name) in [
        ("fig05_surg_path_length", "fig05"),
        ("fig08_table02_configs", "fig08"),
        ("fig09a_hop_counts", "fig09a"),
        ("fig09b_powergate_edp", "fig09b"),
        ("fig10_saturation", "fig10"),
        ("fig11_latency_curves", "fig11"),
        ("fig12_workloads", "fig12"),
        ("bisection_bandwidth", "bisection"),
    ] {
        assert_eq!(
            registry.get(alias).map(Study::name),
            Some(name),
            "alias {alias}"
        );
    }
}
