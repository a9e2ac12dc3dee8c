//! The repository's benchmark: one layered measurement of the meeting-point notification
//! server, from the socket to the safe-region answer.
//!
//! ```text
//! mpn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! mpn-benchmark --smoke [--seed <n>]                                       every workload, tiny
//! mpn-benchmark repeat <sets> <runs> [--seed <n>] [--seconds <s>]          does it repeat?
//! mpn-benchmark manifest                                                   prints BENCHMARK.json
//! ```
//!
//! A run prints every metric by name with its unit, checks the answers, and ends with one
//! JSON line holding `correct`, `attempted`, `failed` and `metrics`.  It exits non-zero when
//! anything failed.  See `benchmark/README.md`.

mod loadgen;
mod oracle;
mod procfs;
mod repeat;
mod report;
mod run;
mod serve;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use run::Options;

const USAGE: &str = "usage: mpn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       mpn-benchmark --smoke [--seed <n>]
       mpn-benchmark repeat <sets> <runs> [--seed <n>] [--seconds <s>]
       mpn-benchmark manifest";

/// The value following `flag`, parsed.
fn value_of<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|arg| arg == flag) else { return Ok(None) };
    args.get(at + 1)
        .and_then(|value| value.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    let io_error = |e: std::io::Error| format!("benchmark failed: {e}");
    match args.first().map(String::as_str) {
        Some("serve") => {
            let cpu = args.get(1).and_then(|cpu| cpu.parse().ok());
            return serve::serve(cpu).map(|()| true).map_err(io_error);
        }
        Some("manifest") => {
            print!("{}", report::manifest());
            return Ok(true);
        }
        Some("repeat") => {
            let count =
                |at: usize| args.get(at).and_then(|n| n.parse::<usize>().ok()).filter(|&n| n >= 1);
            let (Some(sets), Some(runs)) = (count(1), count(2)) else {
                return Err(USAGE.to_owned());
            };
            let seed = value_of(args, "--seed")?.unwrap_or(1);
            let seconds = value_of(args, "--seconds")?.unwrap_or(f64::from(report::RUN_SECONDS));
            return repeat::repeat(sets, runs, seed, seconds).map_err(io_error);
        }
        _ => {}
    }

    let seed = value_of(args, "--seed")?.unwrap_or(1);
    if args.iter().any(|arg| arg == "--smoke") {
        // The traced mode runs every phase of the measured mode, the oracle and the replays.
        let seconds = f64::from(report::RUN_SECONDS);
        let mut all_correct = true;
        for spec in workload::specs() {
            let options = Options { spec, seed, seconds, trace: true, smoke: true };
            let outcome = run::run(&options).map_err(io_error)?;
            println!("{}", outcome.result_line);
            all_correct &= outcome.correct;
        }
        return Ok(all_correct);
    }

    let name: String = value_of(args, "--workload")?.ok_or_else(|| USAGE.to_owned())?;
    let spec = workload::spec_by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::specs().iter().map(|s| s.name).collect();
        format!("unknown workload {name}; the workloads are {}", names.join(", "))
    })?;
    let seconds: f64 = value_of(args, "--seconds")?.unwrap_or(f64::from(report::RUN_SECONDS));
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be between 1 and 60\n{USAGE}"));
    }
    let trace = value_of::<u8>(args, "--trace")?.unwrap_or(0) != 0;
    let outcome =
        run::run(&Options { spec, seed, seconds, trace, smoke: false }).map_err(io_error)?;
    println!("{}", outcome.result_line);
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
