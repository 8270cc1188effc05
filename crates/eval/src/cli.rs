//! The command line every csched-eval binary shares: flag lookup
//! ([`Args`]), the kernel and architecture name tables, and one exit
//! convention ([`main`]) — 0 success, 1 a run that failed, 2 a usage
//! error reported as a single stderr line. A `--flag` the binary does not
//! read is a usage error, so a misspelled flag never runs silently.

use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

use csched_kernels::Workload;
use csched_machine::{imagine, toy, Architecture};

/// The architecture names [`arch`] accepts: the four Imagine
/// register-file organisations, `clustered` for two clusters, and the
/// §2 motivating-example machine.
pub const ARCH_NAMES: &str = "central|clustered2|clustered4|distributed|clustered|toy";

/// A command line a binary cannot run.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// A flag that takes a value came last.
    MissingValue(String),
    /// A numeric flag's value does not parse.
    BadNumber {
        /// The flag.
        flag: String,
        /// Its value as given.
        value: String,
    },
    /// No Table 1 kernel has this name.
    UnknownKernel(String),
    /// [`ARCH_NAMES`] does not list this name.
    UnknownArch(String),
    /// Any other misuse, described in full.
    Usage(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadNumber { flag, value } => write!(f, "{flag}: not a number: {value}"),
            CliError::UnknownKernel(name) => write!(f, "unknown kernel {name:?}"),
            CliError::UnknownArch(name) => write!(f, "unknown arch {name:?} (want {ARCH_NAMES})"),
            CliError::Usage(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

/// A binary's arguments, program name excluded.
#[derive(Debug)]
pub struct Args(Vec<String>);

impl Args {
    /// The arguments of this process.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    /// The arguments `args`, program name excluded.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Args {
        Args(args.into_iter().map(Into::into).collect())
    }

    /// Whether there are no arguments at all.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether the boolean flag `flag` is present.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// The argument after the first `flag`, if `flag` is present.
    ///
    /// # Errors
    ///
    /// [`CliError::MissingValue`] when `flag` is the last argument.
    pub fn value(&self, flag: &str) -> Result<Option<&str>, CliError> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match self.0.get(i + 1) {
                Some(value) => Ok(Some(value)),
                None => Err(CliError::MissingValue(flag.to_string())),
            },
        }
    }

    /// [`Args::value`] parsed as a number.
    ///
    /// # Errors
    ///
    /// [`CliError::MissingValue`], or [`CliError::BadNumber`] when the
    /// value does not parse as a `T`.
    pub fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.value(flag)?
            .map(|value| {
                value.parse().map_err(|_| CliError::BadNumber {
                    flag: flag.to_string(),
                    value: value.to_string(),
                })
            })
            .transpose()
    }

    /// The `arity` arguments after each occurrence of `flag`, in order.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when fewer than `arity` arguments follow an
    /// occurrence.
    pub fn repeated(&self, flag: &str, arity: usize) -> Result<Vec<&[String]>, CliError> {
        let mut out = Vec::new();
        let mut i = 0;
        while let Some(at) = self.0[i..].iter().position(|a| a == flag) {
            let start = i + at + 1;
            let values = self
                .0
                .get(start..start + arity)
                .ok_or_else(|| CliError::Usage(format!("{flag} needs {arity} values")))?;
            out.push(values);
            i = start + arity;
        }
        Ok(out)
    }

    /// Checks that every flag (`--…`) is one of `flags`.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] naming the first flag that is not.
    fn only(&self, flags: &[&str]) -> Result<(), CliError> {
        match self
            .0
            .iter()
            .find(|a| a.starts_with("--") && !flags.contains(&a.as_str()))
        {
            Some(flag) => Err(CliError::Usage(format!("unknown flag {flag}"))),
            None => Ok(()),
        }
    }

    /// The arguments that are neither flags (`--…`) nor the value of one
    /// of `value_flags`.
    pub fn positional(&self, value_flags: &[&str]) -> Vec<&str> {
        let mut out = Vec::new();
        let mut args = self.0.iter();
        while let Some(arg) = args.next() {
            if value_flags.contains(&arg.as_str()) {
                args.next();
            } else if !arg.starts_with("--") {
                out.push(arg.as_str());
            }
        }
        out
    }
}

/// The Table 1 kernel called `name` (case-insensitive).
///
/// # Errors
///
/// [`CliError::UnknownKernel`].
pub fn kernel(name: &str) -> Result<Workload, CliError> {
    csched_kernels::by_name(name).ok_or_else(|| CliError::UnknownKernel(name.to_string()))
}

/// The Table 1 kernels of a comma-separated list, in list order.
///
/// # Errors
///
/// [`CliError::UnknownKernel`] for the first name that is not one.
pub fn kernels(list: &str) -> Result<Vec<Workload>, CliError> {
    list.split(',').map(kernel).collect()
}

/// The architecture called `name`, one of [`ARCH_NAMES`].
///
/// # Errors
///
/// [`CliError::UnknownArch`].
pub fn arch(name: &str) -> Result<Architecture, CliError> {
    Ok(match name {
        "central" => imagine::central(),
        "clustered" | "clustered2" => imagine::clustered(2),
        "clustered4" => imagine::clustered(4),
        "distributed" => imagine::distributed(),
        "toy" => toy::motivating_example(),
        _ => return Err(CliError::UnknownArch(name.to_string())),
    })
}

/// Runs a binary's body on this process's arguments, once every flag
/// among them is one of `flags`, the flags the binary reads. A
/// [`CliError`] prints as `<bin>: <error>` on stderr and exits 2.
pub fn main(
    bin: &str,
    flags: &[&str],
    run: impl FnOnce(&Args) -> Result<ExitCode, CliError>,
) -> ExitCode {
    let args = Args::from_env();
    args.only(flags)
        .and_then(|()| run(&args))
        .unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            ExitCode::from(2)
        })
}
