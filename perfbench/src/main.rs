//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the serving-stack benchmark and prints its metrics;
//! the last line of standard output is the result object. Exits non-zero on
//! any incorrect or missing outcome.

use perfbench::common::Ctx;
use perfbench::report::Report;
use perfbench::{END_TO_END, GATED, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag is required, with a valid value");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-{seed}"));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        dir,
    };
    println!(
        "[{workload}] seed={seed} seconds={seconds} trace={} host parallelism={}",
        trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut rep = Report::default();
    let result = match workload.as_str() {
        "wire_query" => perfbench::wire::run(&ctx, &mut rep),
        "solve_sbl" => perfbench::solve::run(&ctx, &mut rep),
        _ => perfbench::mutate::run(&ctx, &mut rep),
    };
    // The inputs are rewritten from the seed on every run; only the spans
    // of a traced run are kept.
    for entry in std::fs::read_dir(&ctx.dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if !path.to_string_lossy().ends_with(".tsv") {
            let _ = std::fs::remove_file(path);
        }
    }
    if let Err(e) = result {
        eprintln!("perfbench: {workload}: {e}");
        return ExitCode::FAILURE;
    }
    if rep.attempted == 0 {
        rep.fail("no outcome was attempted".into());
    }
    if trace {
        rep.print(&workload, &PER_LAYER, |_| true);
    } else {
        rep.print(&workload, &END_TO_END, |name| GATED.contains(&name));
    }
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
