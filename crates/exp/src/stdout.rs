//! Stdout for the `repro` and `edgerep` binaries.
//!
//! `println!` panics when its reader has gone away (`edgerep solve … |
//! head -2`). Command-line filters should instead stop quietly, so both
//! binaries print through [`write`] via the [`outln!`](crate::outln) and
//! [`out!`](crate::out) macros.

use std::io::{ErrorKind, Write};

/// Writes `args` to stdout. When the reader has closed the pipe the
/// process exits with status 0 and prints nothing more; any other write
/// error exits with status 2 and a message on stderr.
pub fn write(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(2);
    }
}

/// `println!` through [`write`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::stdout::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdout::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` through [`write`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout::write(format_args!($($arg)*))
    };
}
