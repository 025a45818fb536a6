//! `bristle-sim <sweep> [flags]` — every experiment of the reproduction
//! behind one executable. The sweep table and exit statuses are
//! documented in `bristle_sim::sweeps`, the flags in `bristle_sim::cli`.
use std::process::ExitCode;

fn main() -> ExitCode {
    ExitCode::from(bristle_sim::sweeps::cli(std::env::args().skip(1)))
}
