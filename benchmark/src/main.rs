//! The repo's benchmark: five workloads, seven end-to-end metrics, a layer
//! ladder.  See `README.md` beside the manifest for what is measured and why.
//!
//! ```text
//! paco_benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--flip-reference]
//! paco_benchmark --describe                      # the content of BENCHMARK.json
//! paco_benchmark --agree a.json,… b.json,…       # do two sets of results agree?
//! paco_benchmark --smoke                         # 1 round × 0.3 s per workload
//! ```

mod agree;
mod harness;
mod json;
mod layers;
mod os;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::RunArgs;
use std::process::ExitCode;

const USAGE: &str = "usage: paco_benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--flip-reference]
       paco_benchmark --describe | --smoke | --agree <a.json,...> <b.json,...>";

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in this process; the result line is the last line printed.
fn run_one(args: &RunArgs) -> ExitCode {
    match run::run(args) {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.result_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{}: {} of {} operations failed",
                    args.workload, report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Every workload, each in its own process (a workload's peak RSS and thread
/// population must not leak into the next one's numbers).
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in &spec::WORKLOADS {
        println!("## {}", w.name);
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.flip_reference {
            cmd.arg("--flip-reference");
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("error: running {}: {e}", w.name);
                ok = false;
            }
        }
    }
    exit_code(ok)
}

fn smoke() -> ExitCode {
    let mut ok = true;
    for w in &spec::WORKLOADS {
        match run::run(&RunArgs::smoke(w.name)) {
            Ok(report) => {
                println!("{:<18} {}", w.name, report.result_line());
                ok &= report.correct;
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                ok = false;
            }
        }
    }
    exit_code(ok)
}

fn parse(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut flip) =
        (1u64, spec::RUN_SECONDS as f64, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--flip-reference" => flip = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs {
        flip_reference: flip,
        ..RunArgs::new(&workload, seed, seconds, trace)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--describe") => {
            print!("{}", spec::describe());
            ExitCode::SUCCESS
        }
        Some("--smoke") => smoke(),
        Some("--agree") => {
            let split = |s: &String| s.split(',').map(str::to_string).collect::<Vec<_>>();
            match (argv.get(1), argv.get(2)) {
                (Some(a), Some(b)) => match agree::agree(&split(a), &split(b)) {
                    Ok(agreed) => exit_code(agreed),
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::from(2)
                    }
                },
                _ => {
                    eprintln!("{USAGE}");
                    ExitCode::from(2)
                }
            }
        }
        _ => match parse(&argv) {
            Ok(args) if args.workload == "all" => run_all(&args),
            Ok(args) => run_one(&args),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
