//! CLI driving the reconstructed-experiment suite.
//!
//! ```text
//! experiments [--exp all|t1|f2|f3|f4|f5|t6|f7|f8|f9]
//!             [--events N] [--seed S] [--out DIR] [--quick]
//! ```
//!
//! Each experiment prints its table(s) as markdown and writes CSVs to the
//! output directory (default `results/`); the whole markdown report also
//! goes to `full_run.md` there. EXPERIMENTS.md records the expected vs.
//! measured shapes.

use quill_bench::{run_experiment, ExperimentCtx, ALL_EXPERIMENTS};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    exps: Vec<String>,
    ctx: ExperimentCtx,
}

fn parse_args() -> Result<Args, String> {
    let mut ctx = ExperimentCtx::full();
    ctx.out_dir = PathBuf::from("results");
    let mut exps: Vec<String> = vec!["all".into()];
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "--exp" => {
                exps = value("--exp")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect()
            }
            "--events" => {
                ctx.events = value("--events")?
                    .parse()
                    .map_err(|e| format!("bad --events: {e}"))?
            }
            "--seed" => {
                ctx.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--out" => ctx.out_dir = PathBuf::from(value("--out")?),
            "--quick" => {
                let out = ctx.out_dir.clone();
                ctx = ExperimentCtx::quick();
                ctx.out_dir = out;
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--exp all|{}] [--events N] [--seed S] [--out DIR] [--quick]",
                    ALL_EXPERIMENTS.join("|")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if exps.iter().any(|e| e == "all") {
        exps = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for e in &exps {
        if !ALL_EXPERIMENTS.contains(&e.as_str()) {
            return Err(format!(
                "unknown experiment `{e}` (valid: {})",
                ALL_EXPERIMENTS.join(", ")
            ));
        }
    }
    Ok(Args { exps, ctx })
}

/// The markdown report: every line goes to stdout and to
/// `<out>/full_run.md`.
struct Report {
    file: BufWriter<File>,
}

fn unwritable(e: io::Error) -> String {
    format!("cannot write full_run.md: {e}")
}

impl Report {
    fn create(out_dir: &Path) -> Result<Report, String> {
        std::fs::create_dir_all(out_dir).map_err(unwritable)?;
        let file = File::create(out_dir.join("full_run.md")).map_err(unwritable)?;
        Ok(Report {
            file: BufWriter::new(file),
        })
    }

    fn line(&mut self, text: &str) -> Result<(), String> {
        println!("{text}");
        writeln!(self.file, "{text}").map_err(unwritable)
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut report = Report::create(&args.ctx.out_dir)?;
    report.line(&format!(
        "# quill reconstructed-experiment suite\n\nevents/workload: {}, seed: {}, output: {}\n",
        args.ctx.events,
        args.ctx.seed,
        args.ctx.out_dir.display()
    ))?;
    for id in &args.exps {
        let t0 = std::time::Instant::now();
        report.line(&format!("## experiment {id}\n"))?;
        for a in &run_experiment(id, &args.ctx) {
            let rendered = (a.save_and_render(&args.ctx))
                .map_err(|e| format!("failed to save artifact for {id}: {e}"))?;
            report.line(&rendered)?;
        }
        report.line(&format!("({id} took {:.1}s)\n", t0.elapsed().as_secs_f64()))?;
    }
    report.file.flush().map_err(unwritable)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
