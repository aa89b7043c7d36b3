//! The benchmark's own tests, on the smoke sizes.

use perfbench::{run, Opts, Outcome, Workload};

fn opts(workload: Workload, seed: u64, trace: bool) -> Opts {
    Opts {
        workload,
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
        tamper_digest: false,
    }
}

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_metric_prints_with_its_unit() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    for workload in Workload::ALL {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = std::process::Command::new(bin)
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                ])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("benchmark runs");
            assert!(
                out.status.success(),
                "{}: {}",
                workload.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            let names = declared(section);
            assert!(!names.is_empty());
            for (name, unit) in &names {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{} misses {name}", workload.name()));
                let rest = &last[at + entry.len()..];
                let unit_field = format!("\"unit\": \"{unit}\"}}");
                assert!(
                    rest.split_once('}')
                        .is_some_and(|(v, _)| format!("{v}}}").ends_with(&unit_field)),
                    "{name}: {rest}"
                );
            }
            assert_eq!(
                last.matches("\"unit\"").count(),
                names.len(),
                "only the declared metrics"
            );
            assert!(stdout.contains("provenance: {"), "provenance line");
        }
    }
}

fn digests(o: &Outcome) -> (u64, u64) {
    (o.input_digest, o.output_digest)
}

#[test]
fn the_same_seed_gives_identical_outputs() {
    for workload in [Workload::StandardPoint, Workload::Fig1Paper] {
        let a = run(&opts(workload, 5, false));
        let b = run(&opts(workload, 5, true));
        assert!(
            a.correct() && b.correct(),
            "{:?} {:?}",
            a.tally.failures,
            b.tally.failures
        );
        assert_eq!(digests(&a), digests(&b), "{}", workload.name());
    }
}

#[test]
fn a_different_seed_gives_different_inputs() {
    for workload in Workload::ALL {
        let a = run(&opts(workload, 5, false));
        let b = run(&opts(workload, 6, false));
        assert_ne!(a.input_digest, b.input_digest, "{}", workload.name());
        assert_ne!(a.output_digest, b.output_digest, "{}", workload.name());
    }
}

#[test]
fn traced_self_times_add_up_to_the_traced_time() {
    for workload in Workload::ALL {
        let o = run(&opts(workload, 7, true));
        assert!(o.correct(), "{:?}", o.tally.failures);
        let value = |name: &str| o.metric(name).unwrap_or_else(|| panic!("{name}")).value();
        let shares: f64 = o
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".self_share"))
            .map(|m| m.value())
            .sum();
        let unattributed = value("trace.unattributed_share");
        assert!(unattributed < 0.05, "{}: {unattributed}", workload.name());
        assert!(
            (shares + unattributed - 1.0).abs() < 1e-9,
            "{}: {shares} + {unattributed}",
            workload.name()
        );
        assert!(value("rbma.serve_ns_per_req") > 0.0 && value("bma.serve_ns_per_req") > 0.0);
        assert!(value("traces.fill_ns_per_req") > 0.0 && value("simulator.chunks") > 0.0);
        if workload == Workload::Fig1Paper {
            assert!(value("so_bma.s") > 0.0 && value("sweep.jobs") > 0.0);
            assert!(value("so_bma.s") >= value("so_bma.match_s"));
        } else {
            assert_eq!(value("so_bma.s"), 0.0);
        }
    }
}

#[test]
fn default_seed_outputs_match_the_pinned_digests() {
    for workload in Workload::ALL {
        let o = run(&opts(workload, perfbench::DEFAULT_SEED, false));
        assert!(o.correct(), "{}: {:?}", workload.name(), o.tally.failures);
    }
}

#[test]
fn a_tampered_digest_reports_a_failed_run() {
    for workload in [Workload::Churn, Workload::Fig1Paper] {
        let mut o = opts(workload, perfbench::DEFAULT_SEED, false);
        o.tamper_digest = true;
        let out = run(&o);
        assert!(!out.correct());
        assert_eq!(out.tally.failed, 1, "{:?}", out.tally.failures);
        let share = out
            .metric("run_ok_share")
            .expect("end-to-end metric")
            .value();
        assert!(share < 1.0);
    }
}
