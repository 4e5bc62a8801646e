//! # tiptop-bench
//!
//! Experiment harnesses that regenerate the paper's tables and figures from
//! the simulated stack. Every experiment module exposes `run(...)` returning
//! structured data plus a `report()` rendering the same rows or series the
//! paper shows. [`cache_model`] is the micro-bench beneath them: the host
//! cost of one sampled memory access.

pub mod cache_model;
pub mod experiments;
pub mod report;
