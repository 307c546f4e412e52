//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--plain-p50-ms X]`
//!
//! Runs one workload and prints, as the last stdout line, the JSON result
//! object. Exits 1 when a correctness check failed, 2 on a usage error.

use std::process::ExitCode;

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{Run, THREADS};

fn parse(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut plain_p50_ms = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--plain-p50-ms" => plain_p50_ms = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        plain_p50_ms,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench {} seed {} seconds {} trace {} threads {THREADS} nproc {nproc}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    let before = perfbench::cpu_ticks();
    let report = match perfbench::run(&run) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Stolen time slows every timing of the run; the note tells a slow
    // run on a busy host from a slow program.
    if let (Some(before), Some(after)) = (before, perfbench::cpu_ticks()) {
        println!("# host steal {:.4} of busy CPU time", perfbench::steal_share(before, after));
    }
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    match report.render(if run.trace { PER_LAYER } else { END_TO_END }) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
