//! The daemon CLI.
//!
//! ```text
//! quill-serve [--ingest ADDR] [--http ADDR] [--strategy SPEC]
//!             [--query DSL]... [--read-timeout-ms N]
//!             [--idle-timeout-ms N] [--span-capacity N]
//! ```
//!
//! Prints `ingest=ADDR` and `http=ADDR` lines once bound (so callers can
//! use `:0` ephemeral ports), then runs until `POST /shutdown`.

use quill_serve::{ServeConfig, Server, StrategySpec};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: quill-serve [--ingest ADDR] [--http ADDR] [--strategy SPEC] \
         [--query DSL]... [--read-timeout-ms N] [--idle-timeout-ms N] [--span-capacity N]\n\
         \n\
         SPEC: dropall | fixed:<k> | mp[:<cap>] | aq:<q> | aqe:<eps>:<field> | oracle |\n\
         \x20     punct:<field>:<sources>[:<slack>]\n\
         DSL:  <window>;<aggregates>[;key=<f>][;completeness=<q>][;capacity=<n>][;slo=<lat>]\n\
         --span-capacity: span ring size behind GET /trace (default {}; 0 disables tracing)",
        quill_serve::config::SERVE_SPAN_CAPACITY
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServeConfig::default();
    let mut queries: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage();
            })
        };
        match flag.as_str() {
            "--ingest" => config.ingest_addr = value("--ingest"),
            "--http" => config.http_addr = value("--http"),
            "--strategy" => match StrategySpec::parse(&value("--strategy")) {
                Ok(s) => config.strategy = s,
                Err(e) => {
                    eprintln!("{e}");
                    usage();
                }
            },
            "--query" => queries.push(value("--query")),
            "--read-timeout-ms" => match value("--read-timeout-ms").parse() {
                Ok(ms) => config.conn.read_timeout = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--idle-timeout-ms" => match value("--idle-timeout-ms").parse() {
                Ok(ms) => config.conn.idle_timeout = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--span-capacity" => match value("--span-capacity").parse() {
                Ok(n) => config.span_capacity = n,
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }

    let handle = match Server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("quill-serve: {e}");
            std::process::exit(1);
        }
    };
    for dsl in &queries {
        match handle.register(dsl) {
            Ok(id) => println!("query={id}"),
            Err(e) => {
                eprintln!("quill-serve: --query `{dsl}`: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("ingest={}", handle.ingest_addr());
    println!("http={}", handle.http_addr());

    while handle.running() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let stats = handle.shutdown();
    println!(
        "drained events={} results={} queries={}",
        stats.events, stats.results, stats.queries
    );
}
