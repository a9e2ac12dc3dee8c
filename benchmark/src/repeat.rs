//! `repeat <sets> <runs>`: does the benchmark say the same thing twice?
//!
//! Runs every workload `runs` times per set — one set after the other, the workloads taking
//! turns inside a set — each run a fresh process as the driver starts it.  Run `r` of every set uses seed `seed + r` (the
//! driver gives every run another seed); `--same-seed` keeps one seed, which is how the exact
//! counts are shown to repeat bit for bit.  Per metric and set it prints the quartiles; the
//! verdict compares, against the metric's bound, the spread inside a set (interquartile range
//! over median) and the worsening of the median from the first set to any later one.

use std::io;
use std::process::{Command, Stdio};

use crate::report::{parse_result_line, Better, ParsedResult, END_TO_END};
use crate::stats::quartiles;
use crate::workload::specs;

/// One run in a fresh process; `correct` also requires a zero exit code.
fn one_run(workload: &str, seed: u64, seconds: f64) -> io::Result<ParsedResult> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut parsed = stdout.lines().last().and_then(parse_result_line).ok_or_else(|| {
        io::Error::other(format!("{workload} seed {seed} printed no result:\n{stdout}"))
    })?;
    parsed.correct &= output.status.success();
    Ok(parsed)
}

/// Runs the sets and prints the comparison; returns whether every end-to-end metric of every
/// workload stayed inside its bound and every run was correct.
pub fn repeat(sets: usize, runs: usize, seed: u64, seconds: f64) -> io::Result<bool> {
    let same_seed = std::env::args().any(|arg| arg == "--same-seed");
    let workloads = specs();
    // values[workload][set][metric] = one value per run.
    let mut values =
        vec![vec![vec![Vec::with_capacity(runs); END_TO_END.len()]; sets]; workloads.len()];
    let mut all_correct = true;
    for set in 0..sets {
        for run in 0..runs {
            for (spec, of_workload) in workloads.iter().zip(&mut values) {
                let run_seed = if same_seed { seed } else { seed + run as u64 };
                let result = one_run(spec.name, run_seed, seconds)?;
                eprintln!(
                    "set {set} run {run} {} seed {run_seed}: correct {}, failed {}",
                    spec.name, result.correct, result.failed
                );
                all_correct &= result.correct;
                for (def, samples) in END_TO_END.iter().zip(&mut of_workload[set]) {
                    let value = result.metrics.iter().find(|(name, _)| name == def.name);
                    samples.push(value.expect("a run reports every end-to-end metric").1);
                }
            }
        }
    }

    let seeds = if same_seed {
        format!("seed {seed}")
    } else {
        format!("seeds {seed}..{}", seed + runs as u64)
    };
    println!("# repeat: {sets} sets of {runs} runs, {seeds}, {seconds} s\n");
    let mut within_bounds = true;
    for (w, spec) in workloads.iter().enumerate() {
        println!("## {}\n", spec.name);
        println!("| metric | unit | bound | set | q1 | median | q3 | spread | drift | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|---|");
        for (m, def) in END_TO_END.iter().enumerate() {
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let first_median = quartiles(&values[w][0][m])[1];
            for (set, samples) in values[w].iter().enumerate() {
                let [q1, median, q3] = quartiles(&samples[m]);
                let spread = (q3 - q1) / median;
                let worse = match def.better {
                    Better::Lower => median - first_median,
                    Better::Higher => first_median - median,
                };
                let drift = worse / first_median;
                // The set-up time's spread is reported but, as in the driver, not gated.
                let ok = (spread <= bound || def.name == "setup_s") && drift <= bound;
                within_bounds &= ok;
                println!(
                    "| {} | {} | {bound} | {set} | {q1:.6} | {median:.6} | {q3:.6} | {spread:.4} | \
                     {drift:+.4} | {} |",
                    def.name,
                    def.unit,
                    if ok { "ok" } else { "OUTSIDE" }
                );
            }
        }
        println!();
    }
    println!("every run correct: {all_correct}; every metric inside its bound: {within_bounds}");
    Ok(all_correct && within_bounds)
}
