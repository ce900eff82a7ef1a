//! Empty stand-in for the `crossbeam` package.
//!
//! No workspace crate uses it, and it exports nothing.  The package stays,
//! with `xpar`'s dependency on it, only because the benchmark's committed
//! `loopbench/Cargo.lock` records it: dropping either would make cargo
//! rewrite that lockfile.
