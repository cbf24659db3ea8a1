//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints a human-readable report, then the result as one JSON object
//! on the last line of standard output.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match androne_perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ladder_backlog|ladder_steady|fleet_full> \
                 [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let result = androne_perfbench::run(&args);
    for note in &result.notes {
        println!("{note}");
    }
    println!("{}", result.report.to_json());
    ExitCode::SUCCESS
}
