//! Reference explorers shared by the tests in this directory.
//!
//! None of them ships with the crate: they exist only to be compared
//! against `GraphExplorer`. Each test target includes this module with
//! `mod common;` and uses the parts it needs, so the rest are dead code
//! there.
#![allow(dead_code)]

pub mod sleepset;
