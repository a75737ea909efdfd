//! `sbgt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host fingerprint line, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 0 when every
//! output passed the correctness gate, 3 when one did not, 1 on a run
//! error and 2 on a bad command line. `--tiny` shrinks every phase to four
//! cohorts. `--shard` is the internal role the `fabric` workload spawns
//! its shard processes with.

use std::process::ExitCode;

use sbgt_perfbench::workloads::{by_name, WORKLOADS};
use sbgt_perfbench::{fabric, result_line, run, Options};

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).map(String::as_str)
}

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let name = value(args, "--workload").ok_or("missing --workload")?;
    let workload = by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let number = |flag: &str, default: &str| -> Result<f64, String> {
        value(args, flag)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = value(args, "--seed")
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = number("--seconds", "10")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} outside (0, 60]"));
    }
    let trace = match value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let shard = args.iter().any(|a| a == "--shard");
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        tiny: args.iter().any(|a| a == "--tiny"),
    };
    Ok((opts, shard))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, shard) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("sbgt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if shard {
        return match fabric::serve_shard(opts.workload, opts.trace) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sbgt-perfbench shard: {e}");
                ExitCode::from(1)
            }
        };
    }
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("sbgt-perfbench: {} failed: {e}", opts.workload.name);
            return ExitCode::from(1);
        }
    };
    for line in &out.diagnostics {
        eprintln!("sbgt-perfbench: {line}");
    }
    for problem in &out.gate.problems {
        eprintln!("sbgt-perfbench: correctness: {problem}");
    }
    let line = match result_line(&out, opts.workload.name, opts.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("sbgt-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", out.fingerprint);
    println!("{line}");
    if out.gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
