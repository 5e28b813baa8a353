//! `bench_suite`: the end-to-end and per-layer benchmark of the Wukong+S
//! reproduction. See `benchmarks/README.md`.

mod alloc;
mod drive;
mod estimator;
mod layers;
mod metrics;
mod report;
mod run;
mod verify;
mod workload;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage:
  bench_suite run --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--smoke]
  bench_suite noise [--runs N]
  bench_suite compare <a.json> <b.json>
  bench_suite expect          print expected.json (digests of seeds 42 and 7)";

/// Command-line arguments after the subcommand: `--flag [value]` pairs
/// and positionals.
struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Removes `--name` and returns whether it was there.
    fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// Removes `--name <value>` and returns the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        self.rest.remove(i);
        Ok(Some(self.rest.remove(i)))
    }

    fn number<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: {v:?} is not a number")),
            None => Ok(default),
        }
    }

    fn done(self) -> Result<Vec<String>, String> {
        match self.rest.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option {unknown}")),
            None => Ok(self.rest),
        }
    }
}

fn main_inner() -> Result<bool, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or(USAGE)?;
    let mut args = Args {
        rest: argv.collect(),
    };
    match command.as_str() {
        "run" => {
            let name = args.value("--workload")?.ok_or_else(|| {
                let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
                format!("--workload is required (one of {})", names.join(", "))
            })?;
            let opts = run::Options {
                spec: workload::spec(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                seed: args.number("--seed", 42)?,
                seconds: args.number("--seconds", run::RUN_SECONDS)?,
                trace: match args.number("--trace", 0u8)? {
                    0 => false,
                    1 => true,
                    n => return Err(format!("--trace takes 0 or 1, not {n}")),
                },
                smoke: args.flag("--smoke"),
            };
            args.done()?;
            let outcome = run::run(&opts)?;
            println!("{}", outcome.final_line());
            Ok(outcome.correct)
        }
        "noise" => {
            let runs = args.number("--runs", 5)?;
            args.done()?;
            report::noise(runs)
        }
        "compare" => match args.done()?.as_slice() {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.into()),
        },
        "expect" => {
            print!("{}", report::expect());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
