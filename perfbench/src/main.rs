//! `lcmsr-perfbench`: the LCMSR system's benchmark.
//!
//! ```text
//! lcmsr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lcmsr-perfbench compare <parent result dir> <change result dir>
//! lcmsr-perfbench --write-reference <solve_tiny|prepare_large>
//! ```
//!
//! A run builds its inputs from `--seed`, sets the system up, measures one
//! workload for `--seconds`, checks every answer, and prints one JSON object
//! as the last line of standard output (see `report`).  Workloads:
//! `solve_tiny`, `prepare_large`, `served_sessions` (README.md in this
//! directory gives their rationale).

mod compare;
mod direct;
mod gauge;
mod inputs;
mod report;
mod served;
mod stats;

use std::process::ExitCode;

const USAGE: &str = "usage: lcmsr-perfbench --workload <solve_tiny|prepare_large|served_sessions> \
--seed <n> --seconds <s> --trace <0|1>\n       lcmsr-perfbench compare <parent dir> <change dir>\n       \
lcmsr-perfbench --write-reference <solve_tiny|prepare_large>";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &RunArgs) -> Result<report::RunResult, String> {
    match args.workload.as_str() {
        "solve_tiny" => direct::run(&inputs::SOLVE_TINY, args.seed, args.seconds, args.trace),
        "prepare_large" => direct::run(&inputs::PREPARE_LARGE, args.seed, args.seconds, args.trace),
        "served_sessions" => served::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("--write-reference") if args.len() == 2 => direct::write_reference(&args[1]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_run_args(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|run_args| {
                let result = run(&run_args)?;
                report::print(&run_args.workload, run_args.trace, &result);
                Ok(())
            }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lcmsr-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
