//! `pnats-bench` — run the paper's experiments.
//!
//! ```text
//! pnats-bench <experiment> [seed] [--smoke]   one experiment (seed defaults to 42)
//! pnats-bench all [seed]                      every paper experiment + BENCH_harness.json
//! pnats-bench list                            the registered experiment names
//! ```
//!
//! Reports go to stdout, byte-identical at any worker count;
//! `PNATS_THREADS` pins the worker count and `PNATS_TRACE=<path>` writes
//! the decision trace of the last run matrix.

use pnats_bench::experiments::{find, run_all, EXPERIMENTS};
use pnats_bench::{harness_threads, Ctx};
use std::io::Write;
use std::process::ExitCode;

fn usage() -> String {
    let mut s = String::from(
        "usage: pnats-bench <experiment> [seed] [--smoke]\n       \
         pnats-bench all [seed]\n       pnats-bench list\n\nexperiments:\n",
    );
    for e in EXPERIMENTS {
        s.push_str(format!("  {:<24}{}", e.name, e.synopsis).trim_end());
        s.push('\n');
    }
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return if args.is_empty() { ExitCode::from(2) } else { ExitCode::SUCCESS };
    }
    let command = args[0].as_str();
    let smoke = args[1..].iter().any(|a| a == "--smoke");
    let mut positional = args[1..].iter().filter(|a| *a != "--smoke");
    let seed = match positional.next().map(|s| s.parse::<u64>()) {
        None => 42,
        Some(Ok(seed)) => seed,
        Some(Err(_)) => {
            eprintln!("seed must be an unsigned integer\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(extra) = positional.next() {
        eprintln!("unexpected argument `{extra}`\n{}", usage());
        return ExitCode::from(2);
    }

    let result = match command {
        "list" => {
            for e in EXPERIMENTS {
                println!("{}", e.name);
            }
            Ok(())
        }
        "all" => run_all(seed, harness_threads(), &mut std::io::stdout().lock()),
        name => {
            let Some(exp) = find(name) else {
                eprintln!("unknown experiment `{name}`\n{}", usage());
                return ExitCode::from(2);
            };
            let mut ctx = Ctx::new(harness_threads());
            let result = (exp.run)(&mut ctx, seed, smoke).map_err(|e| format!("{name}: {e}"));
            let mut stdout = std::io::stdout().lock();
            stdout.write_all(ctx.out.as_bytes()).and_then(|()| stdout.flush()).ok();
            result
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FATAL: {e}");
            ExitCode::FAILURE
        }
    }
}
