//! The paper's artifact appendix in one command.
//!
//! ```sh
//! cargo run --release --bin reproduce                     # every figure, EXPERIMENTS.md order
//! cargo run --release --bin reproduce -- fig4_parsldock   # one figure
//! ```
//!
//! Stdout is a pure function of the code, pinned per figure by
//! `tests/fixtures/figures.digest`. The one host reading, the KaMPIng
//! binding's wall-clock overhead, goes to stderr.

use hpcci::minimpi::allreduce_overhead_ratio;
use hpcci::reproduce::FIGURES;
use std::process::ExitCode;

/// Timed runs per side of the KaMPIng overhead reading.
const OVERHEAD_SAMPLES: usize = 20;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures: Vec<_> = match args.as_slice() {
        [] => FIGURES.to_vec(),
        [name] => FIGURES.iter().filter(|(n, _)| n == name).copied().collect(),
        _ => Vec::new(),
    };
    if figures.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: reproduce [{}]", names.join("|"));
        return ExitCode::from(2);
    }
    for (name, render) in figures {
        match render() {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("reproduce {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if name == "exp63_kamping" {
            eprintln!(
                "allreduce wall time, KaMPIng binding / raw: {:.3} (fastest of {OVERHEAD_SAMPLES} \
                 runs each; a host reading, not pinned)",
                allreduce_overhead_ratio(OVERHEAD_SAMPLES)
            );
        }
    }
    ExitCode::SUCCESS
}
