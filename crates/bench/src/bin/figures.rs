//! `figures <13…19|table2|all>…` — prints the CSV series of the paper's evaluation figures
//! and fails when one of the paper's claims does not hold (see `mpn_bench::figures`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    mpn_bench::figures::cli(&args)
}
