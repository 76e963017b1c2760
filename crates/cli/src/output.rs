//! Where the CLI writes: its report to stdout, messages to stderr.
//!
//! A reader that quits early (`cycleq check *.cqc | head -1`) closes the
//! pipe, and the next write to stdout fails with `BrokenPipe`. No one is
//! left to read the report, so the process exits at once with status
//! [`EXIT_BROKEN_PIPE`] (141 = 128 + SIGPIPE, what a shell reports for a
//! writer the signal ended) and prints nothing further. Any other failure
//! to write stdout is reported on stderr and exits 2.
//!
//! Lines on stderr (progress, diagnostics, error messages) are advisory: a
//! failed write there is ignored, so no verdict and no exit status depends
//! on it. The progress sink runs inside the engine's panic boundary, where
//! a write that panicked would turn a proved goal into a panicked one.

use std::fmt;
use std::io::{self, Write};
use std::process;

/// The exit status after the reader of stdout closed the pipe.
pub const EXIT_BROKEN_PIPE: i32 = 141;

/// Writes to stdout; see the module docs for what a failure does.
pub fn stdout(args: fmt::Arguments<'_>) {
    let written = io::stdout().lock().write_fmt(args);
    if let Err(e) = written {
        if e.kind() == io::ErrorKind::BrokenPipe {
            process::exit(EXIT_BROKEN_PIPE);
        }
        stderr(format_args!("error: cannot write to stdout: {e}\n"));
        process::exit(i32::from(crate::EXIT_USAGE));
    }
}

/// Writes to stderr, ignoring a failure.
pub fn stderr(args: fmt::Arguments<'_>) {
    let _ = io::stderr().lock().write_fmt(args);
}

/// `print!` through [`stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::output::stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::output::stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprintln!` through [`stderr`].
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::output::stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

pub(crate) use {errln, out, outln};
