//! # bench — the experiment harness of the StopWatch reproduction
//!
//! [`figures`] implements one experiment per result figure of the paper
//! (Figs. 1, 4, 5, 6, 7, 8, plus the Sec. VII-A Δ calibration, the
//! Sec. VIII placement analysis and the Sec. IX collaborating-attacker
//! study); [`report`] renders tables/CSV. The `experiments` binary drives
//! them.
//!
//! Simulated figures are expressed as [`harness`] scenarios and run
//! through its parallel sweep runner; for free-form grids beyond the
//! paper's figures, use the `swbench` binary of the `harness` crate.

pub mod figures;
pub mod report;
