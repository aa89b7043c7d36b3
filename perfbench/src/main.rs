//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--smoke] [--tamper-digest]`
//!
//! Runs one workload, prints its provenance and every metric with its unit,
//! and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones from a traced run, whose spans
//! are also written to `perfbench/out/spans-<workload>.tsv`.

use perfbench::{check::fnv1a, Opts, Outcome, Workload};
use std::path::{Path, PathBuf};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--tamper-digest]",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: Workload::StandardPoint,
        seed: perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        tamper_digest: false,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => {
                opts.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"))
            }
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => opts.smoke = true,
            "--tamper-digest" => opts.tamper_digest = true,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    opts
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Digest of the program's sources (the library crates, the root manifest
/// and lock file): identifies the code under test without git.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend(f.strip_prefix(root).unwrap_or(f).to_string_lossy().bytes());
        all.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", fnv1a(&all))
}

fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or_else(
            || "unknown".into(),
            |v| v.trim_start_matches([' ', '\t', ':']).to_string(),
        )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_report(opts: &Opts, out: &Outcome) {
    let root = repo_root();
    let cpu = cpu_model();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rustc = env!("PERFBENCH_RUSTC");
    let fingerprint = format!(
        "{:016x}",
        fnv1a(format!("{cpu}|{nproc}|{rustc}").as_bytes())
    );
    let spreads: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"repeats\": {}, \"iqr_share\": {}}}",
                json_str(m.name),
                m.samples.len(),
                json_num(m.spread())
            )
        })
        .collect();
    println!(
        "provenance: {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"cpu\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}, \"fingerprint\": {}, \"requests_per_run\": {}, \"passes\": {}, \"input_digest\": \"{:016x}\", \"output_digest\": \"{:016x}\", \"spread\": {{{}}}}}",
        json_str(opts.workload.name()),
        opts.seed,
        opts.trace as u8,
        opts.smoke,
        json_str(&cpu),
        json_str(rustc),
        json_str(&commit(&root)),
        json_str(&source_digest(&root)),
        json_str(&fingerprint),
        out.requests_per_run,
        out.passes,
        out.input_digest,
        out.output_digest,
        spreads.join(", "),
    );
    for m in &out.metrics {
        println!(
            "{:<28} {:>16.6} {:<7} (median of {}, IQR {:.2}% of median)",
            m.name,
            m.value(),
            m.unit,
            m.samples.len(),
            100.0 * m.spread()
        );
    }
    for f in &out.tally.failures {
        println!("FAILED {f}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value()),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    );
}

fn main() {
    let opts = parse_args();
    let out = perfbench::run(&opts);
    if opts.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", opts.workload.name()));
        if let Err(e) = perfbench::spans::write_tsv(&path, &out.spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    print_report(&opts, &out);
}
