//! Brute-force oracles shared by the differential tests in this directory.
//!
//! None of them ships with the solver: they exist only to be compared
//! against it. Each test target includes this module with `mod common;`
//! and uses the oracles it needs, so the rest are dead code there.
#![allow(dead_code)]

pub mod dimacs;
pub mod idl_naive;
pub mod naive;
