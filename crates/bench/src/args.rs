//! Minimal command-line handling for the experiment binaries.

/// Arguments accepted by every figure-regeneration binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    /// Number of line writes per workload (before intensity scaling).
    pub lines: usize,
    /// Seed for trace generation and disturbance sampling.
    pub seed: u64,
}

impl Default for RunArgs {
    fn default() -> RunArgs {
        RunArgs { lines: 2000, seed: 42 }
    }
}

impl RunArgs {
    /// Parses `--lines N` and `--seed S` from an iterator of arguments. An
    /// unknown flag, a flag without its value and an unparsable value are
    /// refused with a message naming the flag.
    pub fn parse<I, S>(args: I) -> Result<RunArgs, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = RunArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let flag = arg.as_ref();
            let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag {
                "--lines" => out.lines = parse_number(flag, value()?.as_ref())?,
                "--seed" => out.seed = parse_number(flag, value()?.as_ref())?,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments (skipping the binary name). A
    /// command-line mistake prints `<program>: <message>` on stderr and
    /// exits with status 2.
    pub fn from_env() -> RunArgs {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        RunArgs::parse(args).unwrap_or_else(|message| {
            let program = std::path::Path::new(&program).file_name().unwrap_or_default();
            eprintln!("{}: {message}", program.to_string_lossy());
            std::process::exit(2)
        })
    }
}

/// Parses `text`, the value given to `flag`.
fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag}: not a number: {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_when_empty() {
        let args = RunArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(args, RunArgs::default());
    }

    #[test]
    fn parses_lines_and_seed() {
        let args = RunArgs::parse(["--lines", "500", "--seed", "7"]).unwrap();
        assert_eq!(args.lines, 500);
        assert_eq!(args.seed, 7);
    }

    #[test]
    fn refuses_unknown_flags_missing_and_bad_values() {
        let cases: [(&[&str], &str); 5] = [
            (&["--verbose", "--lines", "40"], "unknown flag \"--verbose\""),
            (&["--line", "40"], "unknown flag \"--line\""),
            (&["--seed", "7", "--lines"], "--lines needs a value"),
            (&["--lines", "--seed", "7"], "--lines: not a number: \"--seed\""),
            (&["--lines", "abc", "--seed", "9"], "--lines: not a number: \"abc\""),
        ];
        for (args, message) in cases {
            assert_eq!(RunArgs::parse(args), Err(message.to_string()), "{args:?}");
        }
    }
}
