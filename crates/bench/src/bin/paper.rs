//! The paper's figures and tables: prints each experiment's tables and
//! writes its JSON artefacts.
//!
//! `cargo run --release -p rumor-bench --bin paper -- <name|all> [out_dir]`
//! (`out_dir` defaults to `experiments-out/`).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let out_dir = args
        .next()
        .map_or_else(|| PathBuf::from("experiments-out"), PathBuf::from);
    match rumor_bench::paper::run(&name, &out_dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("paper: {e}");
            ExitCode::FAILURE
        }
    }
}
