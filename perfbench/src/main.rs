//! The pricing protocol's wall-clock, memory and failure benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//! ```
//!
//! Runs one workload in this process, checks every outcome against the
//! centralized `vcg::compute` reference outside the timed region, and
//! prints one JSON object as the last line of standard output. With
//! `--trace 0` it holds the end-to-end metrics; with `--trace 1` the
//! per-layer metrics, timed around calls into each module's public
//! functions. `perfbench/README.md` describes the workloads and metrics.

mod chaos;
mod churn;
mod cold;
mod gen;
mod layers;
mod node;
mod reference;
mod report;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = [
    "cold-ba256",
    "churn-ba128",
    "observed-hier256",
    "chaos-er64",
];

#[derive(Debug)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<PathBuf>,
    /// Only time the workload's set-ups and print the samples.
    setup_probe: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        spans_out: None,
        setup_probe: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? == 1,
            "--spans-out" => args.spans_out = Some(PathBuf::from(&value)),
            "--setup-probe" => args.setup_probe = number()? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Fresh processes [`probe_set_ups`] starts.
const SETUP_PROBES: usize = 8;

/// Set-up samples from fresh processes of this program. One set-up takes
/// well under a millisecond; its time repeats within a process but moves
/// by a third between processes (page faults, address-space layout), so
/// `setup_s` pools several processes to measure what a set-up costs one.
pub fn probe_set_ups(args: &Args) -> Vec<f64> {
    let exe = std::env::current_exe().expect("the running program has a path");
    let seed = args.seed.to_string();
    let mut samples = Vec::new();
    for _ in 0..SETUP_PROBES {
        let probe = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--setup-probe", "1"])
            .output()
            .expect("set-up probe starts");
        assert!(probe.status.success(), "set-up probe failed: {probe:?}");
        let out = String::from_utf8(probe.stdout).expect("set-up probe prints text");
        samples.extend(
            out.split_whitespace()
                .map(|v| v.parse::<f64>().expect("set-up probe prints numbers")),
        );
    }
    samples
}

/// The `--setup-probe` mode: prints one workload's set-up samples.
fn print_set_ups(workload: &str, seed: u64) -> ExitCode {
    let times = match workload {
        "cold-ba256" => cold::set_up(cold::COLD_BA256, seed).1,
        "observed-hier256" => cold::set_up(cold::OBSERVED_HIER256, seed).1,
        "chaos-er64" => chaos::set_up(seed).1,
        _ => {
            eprintln!("perfbench: {workload} has no set-up probe");
            return ExitCode::from(2);
        }
    };
    let samples: Vec<String> = times.setup_s.iter().map(f64::to_string).collect();
    println!("{}", samples.join(" "));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return print_set_ups(&args.workload, args.seed);
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload = {}, seed = {}, seconds = {}, trace = {}, nproc = {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match args.workload.as_str() {
        "cold-ba256" => cold::run(cold::COLD_BA256, &args),
        "observed-hier256" => cold::run(cold::OBSERVED_HIER256, &args),
        "churn-ba128" => churn::run(&args),
        _ => chaos::run(&args),
    };
    report.print(args.trace);
    ExitCode::SUCCESS
}
