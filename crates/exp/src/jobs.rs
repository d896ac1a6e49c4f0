//! One place deciding how many worker threads experiments use.
//!
//! Resolution order (first match wins):
//!
//! 1. an explicit `Option<usize>` at the call site
//!    ([`par_map_jobs`](crate::par_map_jobs));
//! 2. the process-wide override set by [`set_jobs`] (the binaries' `--jobs N`
//!    flag via [`init_jobs_from_args`]);
//! 3. the `MINT_JOBS` environment variable;
//! 4. `std::thread::available_parallelism()`.
//!
//! Worker count never affects results — only wall-clock time — so pinning
//! `--jobs 1` is a way to measure, not to reproduce.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// 0 = unset; any positive value overrides the environment.
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Warns about a bad `MINT_JOBS` value at most once per process.
static BAD_ENV_WARNING: Once = Once::new();

/// Sets (or, with 0, clears) the process-wide worker-count override.
pub fn set_jobs(jobs: usize) {
    GLOBAL_JOBS.store(jobs, Ordering::SeqCst);
}

/// Resolves the effective worker count for one run (always ≥ 1).
#[must_use]
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(jobs) = explicit {
        return jobs.max(1);
    }
    let global = GLOBAL_JOBS.load(Ordering::SeqCst);
    if global > 0 {
        return global;
    }
    if let Ok(value) = std::env::var("MINT_JOBS") {
        match value.trim().parse::<usize>() {
            Ok(jobs) if jobs > 0 => return jobs,
            // resolve_jobs is called from library code mid-run, so a bad
            // env value cannot be a hard error like --jobs; warn once and
            // fall back rather than silently ignoring the override.
            _ => BAD_ENV_WARNING.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid MINT_JOBS value {value:?} \
                     (need a positive integer); using default parallelism"
                );
            }),
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses `--jobs N` / `--jobs=N` / `-j N` from the process arguments,
/// installs it via [`set_jobs`], and returns the effective worker count.
///
/// Call this first thing in experiment binaries; an unparsable value exits
/// with status 2 (a silently ignored override would be worse than an error).
pub fn init_jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    init_jobs_from_list(&args)
}

/// [`init_jobs_from_args`] over an explicit argument list (what
/// [`cli::parse`](crate::cli::parse) delegates to).
pub(crate) fn init_jobs_from_list(args: &[String]) -> usize {
    if let Some(jobs) = parse_jobs_args(args) {
        set_jobs(jobs);
    }
    resolve_jobs(None)
}

/// Extracts the jobs override from an argument list (None = not given).
fn parse_jobs_args(args: &[String]) -> Option<usize> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let value = if let Some(v) = arg.strip_prefix("--jobs=") {
            v.to_owned()
        } else if arg == "--jobs" || arg == "-j" {
            match iter.next() {
                Some(v) => v.clone(),
                None => die(&format!("{arg} requires a value")),
            }
        } else {
            continue;
        };
        match value.trim().parse::<usize>() {
            Ok(jobs) if jobs > 0 => return Some(jobs),
            _ => die(&format!(
                "invalid jobs value {value:?} (need a positive integer)"
            )),
        }
    }
    None
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_all_spellings() {
        assert_eq!(parse_jobs_args(&strings(&["--jobs", "4"])), Some(4));
        assert_eq!(parse_jobs_args(&strings(&["--jobs=7"])), Some(7));
        assert_eq!(parse_jobs_args(&strings(&["-j", "2"])), Some(2));
        assert_eq!(parse_jobs_args(&strings(&["unrelated"])), None);
        assert_eq!(parse_jobs_args(&[]), None);
    }

    #[test]
    fn explicit_beats_everything() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1, "explicit 0 clamps to 1");
    }

    #[test]
    fn default_is_positive() {
        assert!(resolve_jobs(None) >= 1);
    }
}
