//! Regenerates the paper's evaluation figures and the DESIGN.md ablations.
//!
//! ```text
//! repro_figures [--fast] [--scale F] [--threads N] [--shard I/M]
//!               [--out DIR] [--json DIR] [--merge-json DIR]
//!               [--telemetry DIR] [--journal FILE] [--resume] <target>...
//! repro_figures --telemetry-diff A.json B.json
//!
//! targets:
//!   fig1 fig2 fig3 fig4      the paper's Figures 1-4 (panels a, b, c)
//!   figures                  all four figures
//!   ablation-alpha           Abl. A: reconfiguration-cost sweep
//!   ablation-augmentation    Abl. B: (b,a) resource augmentation
//!   ablation-skew            Abl. C: spatial-skew sweep
//!   ablation-removal         Abl. E: lazy vs strict removals
//!   lower-bound              Abl. D: deterministic vs randomized gap
//!   scaling                  streamed 10^5 -> 10^7 request sweep (O(1) memory)
//!   demand                   demand mis-estimation sweep (static forecast vs drift)
//!   sweep                    work-stealing executor scaling on a skewed job mix
//!   adversary                coverage-guided adversarial trace search per
//!                            algorithm (worst cost ratio vs SO-BMA); with
//!                            --json also writes the replayable genomes as
//!                            BENCH_adversary_genomes.json
//!   ablations                all ablations
//!   all                      everything
//!
//! --fast        scale workloads down ~20x (quick smoke run)
//! --scale F     multiply request counts by F (e.g. 10 for a 10x longer run;
//!               composes with --fast). Workloads stream, so memory stays flat.
//! --threads N   work-stealing worker count for job grids (0 = auto, one per
//!               core — the default). Timing-sensitive serve loops (panel b,
//!               scaling/sweep rows) stay sequential regardless.
//! --shard I/M   compute only this shard's slice of a table target's rows
//!               (round-robin by row index; seeds unchanged). With --json,
//!               writes BENCH_<target>.shard-I-of-M.json for --merge-json.
//!               Table targets only — figure targets have no mergeable
//!               artifact.
//! --out DIR     also write each panel as CSV into DIR
//! --json DIR    also write each table target as BENCH_<target>.json into DIR
//!               (machine-readable summaries, e.g. CI's BENCH_demand.json)
//! --merge-json DIR  run nothing; instead union DIR's shard files for each
//!               named table target into BENCH_<target>.json (byte-identical
//!               to an unsharded run for deterministic tables). When DIR also
//!               holds TELEM_<target>.shard-*.json files, they are absorbed
//!               (counters sum, gauges max, histogram buckets sum) into
//!               TELEM_<target>.json alongside.
//! --telemetry DIR  install a process-wide telemetry sink and, after each
//!               target, drain it into DIR as TELEM_<target>.json (plus a
//!               Prometheus-text TELEM_<target>.prom on unsharded runs) and
//!               print a per-metric summary table (an unsharded `demand`
//!               run drains its worst-case panel separately, into
//!               TELEM_demand-worst-case.json). Reports and BENCH json
//!               stay byte-identical with or without this flag.
//! --telemetry-diff A B  run nothing; compare the deterministic projection
//!               (scheduling-independent counters + histogram observation
//!               counts) of two TELEM json files, exit 1 on divergence.
//! --journal FILE  append one JSON line per completed supervised job (the
//!               demand target) to FILE via atomic write-then-rename. A run
//!               killed mid-sweep leaves a valid journal behind.
//! --resume      replay FILE before running: journaled jobs are served from
//!               their recorded reports (digest-checked), only missing or
//!               quarantined jobs re-run. The merged artifact is
//!               byte-identical to an uninterrupted run. Requires --journal.
//!
//! Any other argument starting with `--` is an error (exit 2), so a
//! misspelt flag never silently runs with defaults.
//!
//! The environment variable `DCN_FAILPOINTS` (e.g.
//! `sweep.job_claim=panic@5`, `sim.chunk=delay:2ms@10%`) arms deterministic
//! fault-injection points for chaos testing; see `dcn_util::failpoint`.
//! Schedules replay exactly for a fixed `DCN_FAILPOINTS_SEED`.
//! ```

use dcn_bench::{
    ablation_alpha, ablation_augmentation, ablation_removal, ablation_skew, adversary_search,
    demand_sweep_supervised, genomes_to_json, lower_bound_gap, run_panel, scaling_sweep,
    series_to_csv, series_to_markdown, shard, sweep_scaling, telem, worst_case_panel, FigureSpec,
    Panel, SimpleTable,
};
use dcn_core::sweep::{JobFailure, ShardSpec, Supervisor};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// Flags that take a value (the next argument).
const VALUE_FLAGS: [&str; 8] = [
    "--out",
    "--scale",
    "--json",
    "--threads",
    "--shard",
    "--merge-json",
    "--telemetry",
    "--journal",
];

/// Flags that stand alone.
const SWITCH_FLAGS: [&str; 2] = ["--fast", "--resume"];

const TABLE_TARGETS: [&str; 9] = [
    "ablation-alpha",
    "ablation-augmentation",
    "ablation-skew",
    "ablation-removal",
    "lower-bound",
    "demand",
    "scaling",
    "sweep",
    "adversary",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    // A flag whose value is missing is a hard error, not a silent no-op:
    // `--scale` without a number must not quietly run at 1x.
    let value_of = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v.clone()),
            _ => {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            }
        }
    };
    // Diff mode takes two file operands and runs nothing else.
    if let Some(i) = args.iter().position(|a| a == "--telemetry-diff") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("--telemetry-diff requires two TELEM json files");
            std::process::exit(2);
        };
        diff_telemetry(a, b);
        return;
    }
    // Everything else is flags and targets. An unknown flag is a hard
    // error: a typo in `--resume` must not silently rerun everything.
    let mut targets: Vec<String> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
        } else if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
        } else if a.starts_with("--") {
            if !SWITCH_FLAGS.contains(&a.as_str()) {
                eprintln!("unknown flag: {a}");
                std::process::exit(2);
            }
        } else {
            targets.push(a.clone());
        }
    }
    let out_dir: Option<PathBuf> = value_of("--out").map(PathBuf::from);
    let json_dir: Option<PathBuf> = value_of("--json").map(PathBuf::from);
    let merge_dir: Option<PathBuf> = value_of("--merge-json").map(PathBuf::from);
    let telemetry_dir: Option<PathBuf> = value_of("--telemetry").map(PathBuf::from);
    let scale_factor: f64 = match value_of("--scale") {
        Some(v) => match v.parse::<f64>() {
            // `!(x > 0.0)` also rejects NaN, which `x <= 0.0` would let
            // through (and which would otherwise degrade every length to 1).
            Ok(f) if f.is_finite() && f > 0.0 => f,
            _ => {
                eprintln!("--scale expects a positive finite number, got {v:?}");
                std::process::exit(2);
            }
        },
        None => 1.0,
    };
    // 0 = auto (the default): one work-stealing worker per available core.
    let threads: usize = match value_of("--threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--threads expects a non-negative integer (0 = auto), got {v:?}");
                std::process::exit(2);
            }
        },
        None => 0,
    };
    let shard_spec: ShardSpec = match value_of("--shard") {
        Some(v) => match ShardSpec::parse(&v) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("--shard: {e}");
                std::process::exit(2);
            }
        },
        None => ShardSpec::full(),
    };
    // Chaos harness: DCN_FAILPOINTS arms deterministic fault injection
    // before any work runs; a malformed spec is a startup error, not a
    // silently unarmed run.
    match dcn_util::failpoint::arm_from_env() {
        Ok(0) => {}
        Ok(n) => eprintln!("failpoints: {n} armed from DCN_FAILPOINTS"),
        Err(e) => {
            eprintln!("DCN_FAILPOINTS: {e}");
            std::process::exit(2);
        }
    }
    let journal_file: Option<PathBuf> = value_of("--journal").map(PathBuf::from);
    let resume = args.iter().any(|a| a == "--resume");
    if resume && journal_file.is_none() {
        eprintln!("--resume requires --journal FILE (the journal to replay)");
        std::process::exit(2);
    }
    if let Some(path) = &journal_file {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).expect("create journal directory");
        }
        match dcn_core::journal::RunJournal::open(path, resume) {
            Ok(j) => {
                if resume {
                    println!(
                        "journal: {} completed job(s) will replay from {}",
                        j.len(),
                        path.display()
                    );
                }
                dcn_core::journal::install(j);
            }
            Err(e) => {
                eprintln!("--journal {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if targets.is_empty() {
        targets.push("all".into());
    }
    for dir in [&out_dir, &json_dir, &telemetry_dir].into_iter().flatten() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    if telemetry_dir.is_some() {
        // Every SimConfig::default() in the figure/table code paths picks
        // this handle up; reports stay byte-identical either way.
        dcn_telemetry::install_global(dcn_telemetry::Telemetry::enabled());
        if !dcn_telemetry::compiled() {
            eprintln!("note: built with --cfg dcn_telemetry_off; TELEM artifacts will be empty");
        }
    }

    let divisor = if fast { 20 } else { 1 };
    // Every target honours --scale; ablations take one combined multiplier.
    let ablation_scale = scale_factor / divisor as f64;
    let expand = |t: &str| -> Vec<String> {
        match t {
            "all" => vec![
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "ablation-alpha",
                "ablation-augmentation",
                "ablation-skew",
                "ablation-removal",
                "lower-bound",
                "scaling",
                "demand",
                "sweep",
                "adversary",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            "figures" => vec!["fig1", "fig2", "fig3", "fig4"]
                .into_iter()
                .map(String::from)
                .collect(),
            "ablations" => vec![
                "ablation-alpha",
                "ablation-augmentation",
                "ablation-skew",
                "ablation-removal",
                "lower-bound",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            other => vec![other.to_string()],
        }
    };

    let mut queue: Vec<String> = targets.iter().flat_map(|t| expand(t)).collect();
    queue.dedup();

    // Merge mode: reassemble shard artifacts, run nothing. Aggregate
    // targets (`all`, `ablations`) narrow to their table members — only an
    // *explicitly named* figure target is an error, since figures have no
    // mergeable BENCH json.
    if let Some(dir) = merge_dir {
        let mut merge_queue: Vec<String> = Vec::new();
        for t in &targets {
            let expanded = expand(t);
            let is_aggregate = expanded.len() > 1;
            for target in expanded {
                if TABLE_TARGETS.contains(&target.as_str()) {
                    merge_queue.push(target);
                } else if !is_aggregate {
                    eprintln!(
                        "--merge-json: {target} is not a table target (no BENCH json to merge)"
                    );
                    std::process::exit(2);
                }
            }
        }
        merge_queue.dedup();
        if merge_queue.is_empty() {
            eprintln!("--merge-json: no table targets among {targets:?}");
            std::process::exit(2);
        }
        for target in &merge_queue {
            match shard::merge_target_dir(&dir, target) {
                Ok((table, parts)) => {
                    let path = dir.join(shard::merged_file_name(target));
                    std::fs::write(&path, table.to_json()).expect("write merged JSON");
                    println!("merged {} shard file(s) -> {}", parts.len(), path.display());
                    println!("\n{}", table.to_markdown());
                }
                Err(e) => {
                    eprintln!("--merge-json {target}: {e}");
                    std::process::exit(2);
                }
            }
            // Telemetry shards ride along when present; a BENCH-only run
            // has none and that is not an error.
            if has_telem_shards(&dir, target) {
                match telem::merge_target_dir(&dir, target) {
                    Ok((snapshot, parts)) => {
                        let path = dir.join(telem::telem_file_name(target));
                        std::fs::write(&path, snapshot.to_json(target))
                            .expect("write merged TELEM json");
                        println!(
                            "merged {} telemetry shard file(s) -> {}",
                            parts.len(),
                            path.display()
                        );
                    }
                    Err(e) => {
                        eprintln!("--merge-json {target}: {e}");
                        std::process::exit(2);
                    }
                }
            }
        }
        return;
    }

    for target in queue {
        let target_t0 = Instant::now();
        let served_before = dcn_core::total_served();
        let mut telem_target = target.clone();
        match target.as_str() {
            id @ ("fig1" | "fig2" | "fig3" | "fig4") => {
                if !shard_spec.is_full() {
                    eprintln!(
                        "--shard applies to table targets {TABLE_TARGETS:?}; {id} produces \
                         per-panel CSV/markdown with no mergeable BENCH json"
                    );
                    std::process::exit(2);
                }
                let spec = FigureSpec::by_id(id).expect("known figure id");
                let spec = if fast { spec.scaled(divisor) } else { spec };
                let spec = spec.scaled_by(scale_factor);
                run_figure(&spec, threads, out_dir.as_deref());
                // Standing worst-case panel: fig1 carries the committed
                // adversarial corpus rows, so figure runs exercise the
                // discovered nemesis traces, not only `scaling`.
                if id == "fig1" {
                    print_table(
                        "fig1-worst-case",
                        worst_case_panel(),
                        shard_spec,
                        out_dir.as_deref(),
                        json_dir.as_deref(),
                    );
                }
            }
            id @ ("ablation-alpha"
            | "ablation-augmentation"
            | "ablation-skew"
            | "ablation-removal"
            | "lower-bound"
            | "demand"
            | "sweep") => {
                let (table, failures) = match id {
                    "ablation-alpha" => {
                        (ablation_alpha(ablation_scale, threads, shard_spec), vec![])
                    }
                    "ablation-augmentation" => (
                        ablation_augmentation(ablation_scale, threads, shard_spec),
                        vec![],
                    ),
                    "ablation-skew" => (ablation_skew(ablation_scale, threads, shard_spec), vec![]),
                    "ablation-removal" => (
                        ablation_removal(ablation_scale, threads, shard_spec),
                        vec![],
                    ),
                    "lower-bound" => (lower_bound_gap(ablation_scale, threads, shard_spec), vec![]),
                    "sweep" => (sweep_scaling(ablation_scale, shard_spec), vec![]),
                    // The demand target runs supervised: per-job retries,
                    // quarantine instead of abort, and (with --journal)
                    // resumability.
                    _ => demand_sweep_supervised(
                        ablation_scale,
                        threads,
                        shard_spec,
                        &Supervisor::scoped("demand"),
                    ),
                };
                if id == "demand" {
                    report_quarantines(&failures, json_dir.as_deref());
                }
                print_table(
                    id,
                    table,
                    shard_spec,
                    out_dir.as_deref(),
                    json_dir.as_deref(),
                );
                // The demand target carries the standing worst-case panel
                // too (unsharded runs only: the panel is not part of the
                // mergeable per-shard BENCH json).
                if id == "demand" && shard_spec.is_full() {
                    // Its telemetry splits off the same way, into
                    // TELEM_demand-worst-case.json, so TELEM_demand.json
                    // counts exactly the runs a sharded `demand` counts.
                    if let Some(dir) = telemetry_dir.as_deref() {
                        export_telemetry(dir, id, shard_spec);
                    }
                    telem_target = "demand-worst-case".into();
                    print_table(
                        "demand-worst-case",
                        worst_case_panel(),
                        shard_spec,
                        out_dir.as_deref(),
                        json_dir.as_deref(),
                    );
                }
            }
            "adversary" => {
                let (table, genomes) = adversary_search(ablation_scale, threads, shard_spec);
                if let Some(dir) = json_dir.as_deref() {
                    // The replayable genome artifact rides alongside the
                    // mergeable table JSON (genome files are per-shard
                    // slices too, but have no --merge-json support; the
                    // corpus replay test is their consumer).
                    let name = if shard_spec.is_full() {
                        shard::merged_file_name("adversary_genomes")
                    } else {
                        shard::shard_file_name("adversary_genomes", shard_spec)
                    };
                    let path = dir.join(name);
                    std::fs::write(&path, genomes_to_json(&genomes))
                        .expect("write genome artifact");
                    println!("(wrote {})\n", path.display());
                }
                print_table(
                    "adversary",
                    table,
                    shard_spec,
                    out_dir.as_deref(),
                    json_dir.as_deref(),
                );
            }
            "scaling" => {
                let base: &[usize] = if fast {
                    &[10_000, 100_000, 1_000_000]
                } else {
                    &[100_000, 1_000_000, 10_000_000]
                };
                let lens: Vec<usize> = base
                    .iter()
                    .map(|&l| ((l as f64 * scale_factor).round() as usize).max(1))
                    .collect();
                let (table, specials_share) = scaling_sweep(&lens, threads, shard_spec);
                print_table(
                    "scaling",
                    table,
                    shard_spec,
                    out_dir.as_deref(),
                    json_dir.as_deref(),
                );
                // Footer: the measured Theorem-1 specials share across the
                // R-BMA runs (the slow-path density the serve numbers above
                // are facing), from the `rbma.specials` telemetry counter.
                match specials_share {
                    Some(share) => println!(
                        "[scaling] measured specials share: {:.1}% of R-BMA requests (rbma.specials)",
                        share * 100.0
                    ),
                    None => println!(
                        "[scaling] measured specials share: n/a (telemetry compiled out)"
                    ),
                }
            }
            other => {
                eprintln!("unknown target: {other}");
                std::process::exit(2);
            }
        }
        // Per-target footer: wall clock, requests actually pushed through
        // the serve loop (simulator-side counter, live even with telemetry
        // disabled) and the effective aggregate rate.
        let wall = target_t0.elapsed().as_secs_f64();
        let served = dcn_core::total_served() - served_before;
        let mreq_s = if wall > 0.0 {
            served as f64 / wall / 1e6
        } else {
            0.0
        };
        println!(
            "[{target}] {wall:.2}s wall, {served} requests simulated, {mreq_s:.2} Mreq/s effective"
        );
        if let Some(dir) = telemetry_dir.as_deref() {
            export_telemetry(dir, &telem_target, shard_spec);
        }
    }
}

/// The machine-readable quarantine report that rides alongside
/// `BENCH_demand.json`: CI uploads it as an artifact, so a degraded sweep
/// is diagnosable from the failure rows without rerunning anything.
struct QuarantineReport<'a> {
    target: &'a str,
    failures: &'a [JobFailure],
}

// Manual impl: the vendored serde_derive does not handle lifetime-generic
// types.
impl Serialize for QuarantineReport<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut s = serializer.serialize_struct("QuarantineReport", 2)?;
        s.serialize_field("target", &self.target)?;
        s.serialize_field("failures", &self.failures)?;
        s.end()
    }
}

/// Prints quarantined jobs to stderr and (with `--json`) writes the
/// structured `QUARANTINE_demand.json` report — always, so a failure-free
/// run leaves an explicit empty report rather than an absent file.
fn report_quarantines(failures: &[JobFailure], json_dir: Option<&std::path::Path>) {
    for f in failures {
        eprintln!(
            "quarantined job {} ({}): {} after {} attempt(s): {}",
            f.index, f.key, f.reason, f.attempts, f.detail
        );
    }
    if let Some(dir) = json_dir {
        let report = QuarantineReport {
            target: "demand",
            failures,
        };
        let path = dir.join("QUARANTINE_demand.json");
        let json = dcn_util::json::to_json_string(&report).expect("quarantine serialization");
        std::fs::write(&path, json).expect("write quarantine report");
        println!("(wrote {})\n", path.display());
    }
}

/// Drains the global telemetry sink into `dir` as this target's TELEM
/// artifact(s) and prints the per-metric summary. Draining per target
/// keeps multi-target invocations separated.
fn export_telemetry(dir: &std::path::Path, target: &str, shard_spec: ShardSpec) {
    let snapshot = dcn_telemetry::global().drain();
    let name = if shard_spec.is_full() {
        telem::telem_file_name(target)
    } else {
        telem::telem_shard_file_name(target, shard_spec)
    };
    let path = dir.join(name);
    std::fs::write(&path, snapshot.to_json(target)).expect("write TELEM json");
    println!("(wrote {})\n", path.display());
    if shard_spec.is_full() {
        let prom = dir.join(telem::telem_prom_file_name(target));
        std::fs::write(&prom, snapshot.to_prometheus()).expect("write TELEM prom");
        println!("(wrote {})\n", prom.display());
    }
    print!("{}", telem::summary_table(&snapshot));
}

/// `--telemetry-diff A B`: compares the deterministic projections of two
/// TELEM files (any mix of shard and merged artifacts of the same run
/// shape) and exits non-zero on divergence.
fn diff_telemetry(a: &str, b: &str) {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("--telemetry-diff: {p}: {e}");
            std::process::exit(2);
        });
        telem::parse_snapshot(&text).unwrap_or_else(|e| {
            eprintln!("--telemetry-diff: {p}: {e}");
            std::process::exit(2);
        })
    };
    let ((ta, sa), (tb, sb)) = (load(a), load(b));
    if ta != tb {
        eprintln!("--telemetry-diff: targets differ: {ta:?} vs {tb:?}");
        std::process::exit(1);
    }
    match telem::diff_projection(&sa, &sb) {
        Ok(()) => {
            let keys = telem::projection(&sa).len();
            println!("telemetry projections match ({keys} deterministic keys)");
        }
        Err(divergences) => {
            eprintln!("telemetry projections diverge:\n{divergences}");
            std::process::exit(1);
        }
    }
}

/// Whether `dir` holds any `TELEM_<target>.shard-*.json` files.
fn has_telem_shards(dir: &std::path::Path, target: &str) -> bool {
    let prefix = format!("TELEM_{target}.shard-");
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".json"))
        })
    })
}

fn run_figure(spec: &FigureSpec, threads: usize, out_dir: Option<&std::path::Path>) {
    let threads = dcn_core::sweep::resolve_threads(threads);
    println!(
        "\n## {} — {} ({} requests, α={})\n",
        spec.id, spec.title, spec.total_requests, spec.alpha
    );
    for (panel, suffix, label) in [
        (Panel::RoutingCost, "a", "Routing cost"),
        (Panel::ExecutionTime, "b", "Execution time [s]"),
        (Panel::BestOf, "c", "Best-of comparison (routing cost)"),
    ] {
        // Panel b is timing-sensitive: single-threaded.
        let t = if panel == Panel::ExecutionTime {
            1
        } else {
            threads
        };
        let series = run_panel(spec, panel, t);
        println!(
            "{}",
            series_to_markdown(&format!("{}{suffix}: {label}", spec.id), &series)
        );
        if let Some(dir) = out_dir {
            let path = dir.join(format!("{}{suffix}.csv", spec.id));
            std::fs::write(&path, series_to_csv(&series)).expect("write CSV");
            println!("(wrote {})\n", path.display());
        }
    }
}

fn print_table(
    target: &str,
    table: SimpleTable,
    shard_spec: ShardSpec,
    out_dir: Option<&std::path::Path>,
    json_dir: Option<&std::path::Path>,
) {
    println!("\n{}", table.to_markdown());
    if let Some(dir) = json_dir {
        // A sharded run writes its slice under the shard name, ready for
        // --merge-json; an unsharded run writes the final artifact.
        let name = if shard_spec.is_full() {
            shard::merged_file_name(target)
        } else {
            shard::shard_file_name(target, shard_spec)
        };
        let path = dir.join(name);
        std::fs::write(&path, table.to_json()).expect("write JSON summary");
        println!("(wrote {})\n", path.display());
    }
    if let Some(dir) = out_dir {
        let slug: String = table
            .title
            .chars()
            .take_while(|&c| c != ':')
            .filter(|c| c.is_alphanumeric())
            .collect::<String>()
            .to_lowercase();
        let mut csv = String::from("row");
        for c in &table.columns {
            csv.push(',');
            csv.push_str(&c.replace(',', ";"));
        }
        csv.push('\n');
        for (label, values) in &table.rows {
            csv.push_str(label);
            for v in values {
                csv.push_str(&format!(",{v}"));
            }
            csv.push('\n');
        }
        let path = dir.join(format!("{slug}.csv"));
        std::fs::write(&path, csv).expect("write CSV");
        println!("(wrote {})\n", path.display());
    }
}
