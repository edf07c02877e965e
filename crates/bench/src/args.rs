//! Command-line parsing for `scaling_ranksim`.
//!
//! Strict about unknown options: a typo like `--qiuck` must not silently
//! run the full-size sweep.

/// Options of the rank-scaling sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--quick` / `--smoke`: smaller grid and rank range, for CI smoke
    /// runs.
    pub quick: bool,
}

impl BenchArgs {
    /// Parse from the process arguments. Unknown options abort with a
    /// message instead of being ignored.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument list, for tests.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = BenchArgs { quick: false };
        for a in args {
            match a.as_str() {
                "--quick" | "--smoke" => out.quick = true,
                other => {
                    return Err(format!(
                        "unknown option {other} (supported: --quick | --smoke)"
                    ))
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        assert!(!parse(&[]).unwrap().quick);
    }

    #[test]
    fn quick_and_smoke_are_synonyms() {
        assert!(parse(&["--quick"]).unwrap().quick);
        assert!(parse(&["--smoke"]).unwrap().quick);
    }

    #[test]
    fn unknown_options_are_rejected() {
        assert!(parse(&["--qiuck"]).is_err());
        assert!(parse(&["--seed", "7"]).is_err());
    }
}
