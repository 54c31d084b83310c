//! `mctbench` command line. Run from the root of the repository:
//!
//! ```text
//! mctbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mctbench --all [--traced] [--repeat K] [--seed n] [--seconds s]
//! mctbench --workload <name> --repeat K [--seed n] [--seconds s]
//! mctbench --compare A.json B.json
//! ```
//!
//! The last line of standard output is the result; everything meant for
//! a person goes to standard error.

use mctbench::mix::SCALE;
use mctbench::report::{compare, run_workload, summarize, WORKLOADS};
use mctbench::workloads::Config;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: mctbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
     mctbench --all [--traced] [--repeat K] [--seed n] [--seconds s]\n       \
     mctbench --workload <name> --repeat K [--seed n] [--seconds s]\n       \
     mctbench --compare A.json B.json";

struct Args {
    workload: Option<String>,
    all: bool,
    traced: bool,
    seed: u64,
    seconds: f64,
    repeat: Option<u64>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        traced: false,
        seed: 1,
        seconds: 10.0,
        repeat: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut it)?),
            "--seed" => {
                let v = value(&flag, &mut it)?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value(&flag, &mut it)?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value(&flag, &mut it)?;
                args.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--traced" => args.traced = true,
            "--all" => args.all = true,
            "--repeat" => {
                let v = value(&flag, &mut it)?;
                args.repeat = Some(v.parse().ok().filter(|k| *k >= 1).ok_or_else(|| bad(&v))?);
            }
            "--compare" => args.compare = Some((value(&flag, &mut it)?, value(&flag, &mut it)?)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// One workload in a process of its own, so the global counters it
/// reads are its own. Returns the child's result line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed ({}): {line}",
            out.status
        ));
    }
    Ok(line)
}

fn run(args: Args) -> Result<ExitCode, String> {
    if let Some((a, b)) = &args.compare {
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let (table, regressed) = compare(&read("BENCHMARK.json")?, &read(a)?, &read(b)?)?;
        print!("{table}");
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let selected: Vec<&str> = match (&args.workload, args.all) {
        (Some(w), false) => vec![w.as_str()],
        (None, true) => WORKLOADS.to_vec(),
        _ => return Err("give either --workload <name> or --all".to_string()),
    };
    if args.all || args.repeat.is_some() {
        for workload in selected {
            let mut lines = Vec::new();
            for k in 0..args.repeat.unwrap_or(1) {
                lines.push(child(workload, args.seed + k, args.seconds, false)?);
            }
            match args.repeat {
                // One summary object per line: the file --compare reads.
                Some(_) => println!("{}", summarize(workload, &lines)?.replace('\n', "")),
                None => println!("{workload} {}", lines[0]),
            }
            if args.traced {
                println!(
                    "{workload} traced {}",
                    child(workload, args.seed, args.seconds, true)?
                );
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let cfg = Config {
        seed: args.seed,
        scale: SCALE,
        scratch: cwd.join("mctbench").join("scratch"),
    };
    let outcome = run_workload(selected[0], &cfg, args.seconds, args.traced)?;
    eprint!("{}", outcome.report);
    println!("{}", outcome.result_line());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // glibc's allocator takes its lock-free single-thread path until a
    // process first spawns a thread, and never again after. `mctd` is
    // always past that point; without this a store build is a fifth
    // faster in the workloads (and in the first set-up of a run) that
    // have not started a server yet.
    let _ = std::thread::spawn(|| {}).join();
    match parse_args().and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mctbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
