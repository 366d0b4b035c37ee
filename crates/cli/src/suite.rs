//! The `suite` command: `cqc suite manifest` prints the byte-stable
//! enumeration manifest of the workload suites (CQ / DCQ / ECQ) that
//! `tests/golden/workload_suites.txt` pins. The suites themselves are
//! measured by `perfbench`.

use crate::{Args, CliError};
use cqc_workloads::manifest;

/// The pinned manifest defaults (golden-tested; change them and the
/// golden file together).
pub const MANIFEST_SEED: u64 = 0xC0FFEE;
/// Queries sampled per class in the pinned manifest.
pub const MANIFEST_PER_CLASS: usize = 8;

/// Run `cqc suite`.
pub fn run_suite(args: &Args) -> Result<String, CliError> {
    match args.positional() {
        [kind] if kind == "manifest" => run_manifest(args),
        [other, ..] => Err(CliError::Usage(format!(
            "unknown suite subcommand `{other}` (expected `manifest`)"
        ))),
        [] => Err(CliError::Usage(
            "`suite` expects a subcommand (`cqc suite manifest`)".into(),
        )),
    }
}

/// `cqc suite manifest`: print the byte-stable enumeration manifest.
fn run_manifest(args: &Args) -> Result<String, CliError> {
    let seed: u64 = args.get_or("seed", MANIFEST_SEED)?;
    let per_class: usize = args.get_or("per-class", MANIFEST_PER_CLASS)?;
    Ok(manifest(seed, per_class))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args_from;

    #[test]
    fn manifest_subcommand_matches_the_library() {
        let out = run_suite(&args_from(["suite", "manifest"]).unwrap()).unwrap();
        assert_eq!(out, manifest(MANIFEST_SEED, MANIFEST_PER_CLASS));
        let small =
            run_suite(&args_from(["suite", "manifest", "--per-class", "2"]).unwrap()).unwrap();
        assert!(small.contains("2 per class"), "{small}");
    }

    #[test]
    fn bad_suite_invocations_are_usage_errors() {
        for bad in [
            vec!["suite"],
            vec!["suite", "icicle"],
            vec!["suite", "--mode", "kick-tires"],
            vec!["suite", "--mode", "warp"],
            vec!["suite", "--per-class", "0"],
            vec!["suite", "--epsilon", "1.5"],
        ] {
            let err = run_suite(&args_from(bad.clone()).unwrap()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} -> {err}");
        }
    }
}
