//! # hbbp-bench — experiment harness and benchmarks
//!
//! One regeneration function per table and figure of the paper (module
//! [`exp`]), the shared evaluation pipeline ([`runner`]), plus Criterion
//! benchmarks of the collector/analyzer/codec hot paths (`benches/`).
//!
//! The `experiments` binary exposes every experiment as a subcommand:
//!
//! ```text
//! experiments all            # everything, in paper order
//! experiments table1 … table8
//! experiments fig1 … fig4
//! experiments ablate-cutoff | ablate-stack | ablate-periods |
//!             ablate-quirk | ablate-kernel-patch
//! options: --scale tiny|small|full   --seed N   --rule paper|cutoff=N|always-ebs|always-lbr
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exp;
pub mod runner;
pub mod scaling;

pub use exp::ExpOptions;
