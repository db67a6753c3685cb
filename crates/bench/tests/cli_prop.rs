//! Property tests for the `CliArgs` flag parser: `--flag value` and
//! `--flag=value` must be interchangeable, missing values and unknown flags
//! must be detected (never silently absorbed), and every flag the CLI
//! advertises must round-trip for every study the registry exposes.

use proptest::prelude::*;
use sf_bench::cli::{CliArgs, RUN_BOOL_FLAGS, RUN_VALUE_FLAGS};
use sf_bench::report::{REPORT_BOOL_FLAGS, REPORT_VALUE_FLAGS};
use stringfigure::study::StudyRegistry;

fn args(list: &[String]) -> CliArgs {
    CliArgs::new(list.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The space form and the `=` form of every value flag parse to the same
    /// value, for arbitrary (dash-free) values and positions.
    #[test]
    fn prop_space_and_equals_forms_are_equivalent(
        flag_sel in 0usize..4,
        value_num in any::<u32>(),
        lead_quick in any::<bool>(),
    ) {
        let flag = RUN_VALUE_FLAGS[flag_sel % RUN_VALUE_FLAGS.len()];
        let value = format!("v{value_num}.csv");
        let mut spaced = Vec::new();
        let mut equals = Vec::new();
        if lead_quick {
            spaced.push("--quick".to_string());
            equals.push("--quick".to_string());
        }
        spaced.push(flag.to_string());
        spaced.push(value.clone());
        equals.push(format!("{flag}={value}"));
        let spaced = args(&spaced);
        let equals = args(&equals);
        prop_assert_eq!(spaced.value(flag).as_deref(), Some(value.as_str()));
        prop_assert_eq!(spaced.value(flag), equals.value(flag));
        prop_assert_eq!(spaced.flag("--quick"), lead_quick);
        prop_assert!(spaced.unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS).is_empty());
        prop_assert!(equals.unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS).is_empty());
    }

    /// A flag given twice takes the last value, for every combination of
    /// the space form and the `=` form across the two occurrences, wherever
    /// the duplicate pair sits among other flags.
    #[test]
    fn prop_duplicate_flags_take_the_last_value(
        flag_sel in 0usize..8,
        first_num in any::<u32>(),
        second_num in any::<u32>(),
        first_eq in any::<bool>(),
        second_eq in any::<bool>(),
        interleave_quick in any::<bool>(),
    ) {
        let flag = RUN_VALUE_FLAGS[flag_sel % RUN_VALUE_FLAGS.len()];
        let first = format!("v{first_num}");
        let second = format!("v{second_num}");
        let mut list = Vec::new();
        let push_occurrence = |list: &mut Vec<String>, eq: bool, value: &str| {
            if eq {
                list.push(format!("{flag}={value}"));
            } else {
                list.push(flag.to_string());
                list.push(value.to_string());
            }
        };
        push_occurrence(&mut list, first_eq, &first);
        if interleave_quick {
            list.push("--quick".to_string());
        }
        push_occurrence(&mut list, second_eq, &second);
        let parsed = args(&list);
        prop_assert_eq!(parsed.value(flag).as_deref(), Some(second.as_str()));
        prop_assert_eq!(parsed.flag("--quick"), interleave_quick);
        prop_assert!(parsed.unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS).is_empty());

        // A malformed trailing occurrence never erases the earlier value.
        let mut torn = Vec::new();
        push_occurrence(&mut torn, first_eq, &first);
        torn.push(flag.to_string());
        let torn = args(&torn);
        prop_assert_eq!(torn.value(flag).as_deref(), Some(first.as_str()));
    }

    /// A value flag with its value missing — last argument, or followed by
    /// another flag — reads as absent in both error shapes.
    #[test]
    fn prop_missing_values_are_absent(flag_sel in 0usize..4, next_sel in 0usize..2) {
        let flag = RUN_VALUE_FLAGS[flag_sel % RUN_VALUE_FLAGS.len()];
        let trailing = args(&[flag.to_string()]);
        prop_assert_eq!(trailing.value(flag), None);
        let next = RUN_BOOL_FLAGS[next_sel % RUN_BOOL_FLAGS.len()];
        let swallowed = args(&[flag.to_string(), next.to_string()]);
        prop_assert_eq!(swallowed.value(flag), None);
        // The follower is still seen as its own flag, not as a value.
        prop_assert!(swallowed.flag(next));
    }

    /// `--telemetry-every` round-trips any unsigned integer through both
    /// forms, and rejects non-numeric values as absent.
    #[test]
    fn prop_usize_values_round_trip(n in any::<u32>()) {
        let flag = "--telemetry-every";
        let spaced = args(&[flag.to_string(), n.to_string()]);
        prop_assert_eq!(spaced.usize_value(flag), Some(n as usize));
        let equals = args(&[format!("{flag}={n}")]);
        prop_assert_eq!(equals.usize_value(flag), Some(n as usize));
        let junk = args(&[format!("{flag}=x{n}")]);
        prop_assert_eq!(junk.usize_value(flag), None);
    }

    /// The `report` subcommand's two-value `--diff` parses identically in
    /// both forms, and a torn pair never survives.
    #[test]
    fn prop_diff_pair_round_trips(
        a_num in any::<u32>(),
        b_num in any::<u32>(),
        eq_form in any::<bool>(),
        trailing_flag in any::<bool>(),
    ) {
        let a = format!("a{a_num}.json");
        let b = format!("b{b_num}.json");
        let mut list = Vec::new();
        if eq_form {
            list.push(format!("--diff={a}"));
        } else {
            list.push("--diff".to_string());
            list.push(a.clone());
        }
        list.push(b.clone());
        let parsed = args(&list);
        prop_assert_eq!(parsed.pair("--diff"), Some((a.clone(), b)));
        prop_assert!(
            parsed.unknown_flags(REPORT_BOOL_FLAGS, REPORT_VALUE_FLAGS).is_empty()
        );
        // Torn: the second value missing (end of args or a following flag).
        let mut torn = vec!["--diff".to_string(), a];
        if trailing_flag {
            torn.push("--quiet".to_string());
        }
        prop_assert_eq!(args(&torn).pair("--diff"), None);
    }

    /// Any flag outside the advertised set is reported as unknown, whatever
    /// known flags surround it.
    #[test]
    fn prop_unknown_flags_are_detected(
        suffix in 0u32..1_000_000,
        with_known in any::<bool>(),
    ) {
        let bogus = format!("--bogus-{suffix}");
        let mut list = vec![bogus.clone()];
        if with_known {
            list.push("--quick".to_string());
            list.push("--csv".to_string());
            list.push("out.csv".to_string());
        }
        let parsed = args(&list);
        prop_assert_eq!(
            parsed.unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS),
            vec![bogus]
        );
    }
}

/// Every flag the CLI advertises round-trips for every study in the combined
/// registry: the args a full `sfbench run <study> ...` invocation would see
/// parse back to exactly the values given, with nothing unknown.
#[test]
fn every_advertised_flag_round_trips_for_every_registered_study() {
    let registry = StudyRegistry::all();
    assert!(registry.len() >= 11);
    for (i, study) in registry.iter().enumerate() {
        let csv = format!("{}.csv", study.name());
        let json = format!("{}.json", study.name());
        let checkpoint = format!("{}.journal", study.name());
        let trace = format!("{}.trace.jsonl", study.name());
        let metrics = format!("{}.metrics.json", study.name());
        let telemetry = format!("{}.telemetry.bin", study.name());
        let invocation = args(&[
            "--quick".to_string(),
            "--no-resume".to_string(),
            "--quiet".to_string(),
            "--csv".to_string(),
            csv.clone(),
            "--json".to_string(),
            json.clone(),
            format!("--checkpoint={checkpoint}"),
            "--trace".to_string(),
            trace.clone(),
            format!("--metrics={metrics}"),
            "--telemetry".to_string(),
            telemetry.clone(),
            "--telemetry-every".to_string(),
            (16 * (i + 1)).to_string(),
        ]);
        for flag in RUN_BOOL_FLAGS {
            assert!(invocation.flag(flag), "{}: {flag}", study.name());
        }
        assert_eq!(invocation.value("--csv").as_deref(), Some(csv.as_str()));
        assert_eq!(invocation.value("--json").as_deref(), Some(json.as_str()));
        assert_eq!(
            invocation.value("--checkpoint").as_deref(),
            Some(checkpoint.as_str())
        );
        assert_eq!(invocation.value("--trace").as_deref(), Some(trace.as_str()));
        assert_eq!(
            invocation.value("--metrics").as_deref(),
            Some(metrics.as_str())
        );
        assert_eq!(
            invocation.value("--telemetry").as_deref(),
            Some(telemetry.as_str())
        );
        assert_eq!(
            invocation.usize_value("--telemetry-every"),
            Some(16 * (i + 1))
        );
        assert!(
            invocation
                .unknown_flags(RUN_BOOL_FLAGS, RUN_VALUE_FLAGS)
                .is_empty(),
            "{}",
            study.name()
        );
    }
}

/// The aliases the registry advertises resolve through `CliArgs`-driven
/// dispatch exactly like the primary names (grid is cheap enough to run for
/// every study).
#[test]
fn grid_answers_for_every_name_and_alias() {
    let registry = StudyRegistry::all();
    for study in registry.iter() {
        assert_eq!(
            sf_bench::cli::main(vec!["grid".into(), study.name().into(), "--quick".into()]),
            0,
            "{}",
            study.name()
        );
        for alias in study.aliases() {
            assert_eq!(
                sf_bench::cli::main(vec!["grid".into(), (*alias).into()]),
                0,
                "{alias}"
            );
        }
    }
}
