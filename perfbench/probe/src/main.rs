//! `perfbench-probe` — the benchmark's in-process half. `perfbench/run.py`
//! drives it; each subcommand is one measured unit:
//!
//! ```text
//! perfbench-probe figures <paper_figs|scale_1e6> --out DIR [--spans FILE]
//! perfbench-probe serve-worker --connect HOST:PORT --out DIR [--spans FILE]
//! perfbench-probe layers <workload> --seed N --spans FILE
//! perfbench-probe setup <paper_figs|scale_1e6>
//! ```
//!
//! `--spans FILE` turns tracing on and writes the recorded spans there.

mod layers;
mod passes;
mod setup;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

struct Args {
    command: String,
    workload: String,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    connect: Option<String>,
    seed: u64,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let command = it.next().ok_or("missing subcommand")?.clone();
    let mut args = Args {
        command,
        workload: String::new(),
        out: None,
        spans: None,
        connect: None,
        seed: 0,
    };
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--connect" => args.connect = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            other if !other.starts_with("--") && args.workload.is_empty() => {
                args.workload = other.to_string();
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let mut tr = Tracer::new(args.spans.is_some());
    let out = || args.out.clone().ok_or("--out is required");
    match args.command.as_str() {
        "figures" => passes::figures(&args.workload, &out()?, &mut tr)?,
        "serve-worker" => {
            let addr = args.connect.as_deref().ok_or("--connect is required")?;
            passes::serve_worker(addr, &out()?, &mut tr)?;
        }
        "layers" => layers::run(&args.workload, args.seed, &mut tr)?,
        "setup" => {
            let secs = setup::run(&args.workload)?;
            println!("setup_s {secs:?}");
        }
        other => return Err(format!("unknown subcommand {other:?}")),
    }
    match &args.spans {
        Some(path) => tr.write(path),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}
