//! Drive the optimizer from Fortran-like *text*: parse a program, run the
//! compound algorithm, print the result, and profile reuse distances
//! before and after.
//!
//! ```text
//! cargo run --release --example parse_and_optimize [file.f]
//! ```
//!
//! Without an argument, a built-in Gauss–Seidel example is used.

use cmt_locality_repro::cache::ReuseDistance;
use cmt_locality_repro::interp::{Layout, TraceSink};
use cmt_locality_repro::ir::parse::parse_program;
use cmt_locality_repro::ir::pretty::program_to_string;
use cmt_locality_repro::locality::{compound::compound, model::CostModel};

const DEFAULT: &str = "PROGRAM example
PARAM N
REAL A(N,N), B(N,N), C(N,N)
DO I = 1, N
  DO J = 1, N
    C(I,J) = A(I,J) + B(I,J) * 2.0
  ENDDO
ENDDO
DO I2 = 1, N
  DO J2 = 1, N
    B(I2,J2) = A(I2,J2) - 1.0
";

struct ReuseSink(ReuseDistance);
impl TraceSink for ReuseSink {
    fn access(&mut self, addr: u64, _w: bool) {
        self.0.record(addr);
    }
}

fn profile(p: &cmt_locality_repro::ir::Program, n: i64) -> ReuseDistance {
    let layout = Layout::new(p, &[n]).expect("allocation");
    let mut sink = ReuseSink(ReuseDistance::new(32));
    layout.trace(p, &mut sink).expect("execution");
    sink.0
}

fn main() {
    let src = std::env::args()
        .nth(1)
        .map(|f| std::fs::read_to_string(f).expect("readable input file"))
        .unwrap_or_else(|| DEFAULT.to_string());

    let original = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    println!("--- parsed ---\n{}", program_to_string(&original));

    let model = CostModel::new(4);
    let mut transformed = original.clone();
    let report = compound(&mut transformed, &model);
    println!("--- optimized ---\n{}", program_to_string(&transformed));
    println!(
        "permuted {} nest(s), fused {}, distributed {}\n",
        report.nests_permuted, report.nests_fused, report.distributions
    );

    cmt_locality_repro::interp::assert_equivalent(&original, &transformed, &[32]);

    let n = 128;
    let before = profile(&original, n);
    let after = profile(&transformed, n);
    println!("reuse-distance profile (32-byte lines, N = {n}):");
    println!(
        "{:>14} {:>12} {:>12}",
        "capacity", "orig miss%", "opt miss%"
    );
    for lines in [64u64, 256, 1024, 4096] {
        println!(
            "{:>8} lines {:>11.1}% {:>11.1}%",
            lines,
            100.0 * before.miss_rate_for_capacity(lines),
            100.0 * after.miss_rate_for_capacity(lines),
        );
    }
}
