//! Command-line handling for the bench binaries: one flag loop
//! ([`read_flags`]) behind [`RunArgs`] and the tools' own flags.

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
        read_flags(args, |flag, value| {
            match flag {
                "--lines" => out.lines = value.number()?,
                "--seed" => out.seed = value.number()?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(out)
    }

    /// Parses the process arguments, exiting as [`from_env`] does on a
    /// command-line mistake.
    pub fn from_env() -> RunArgs {
        from_env(RunArgs::parse)
    }
}

/// Reads `args` in order — the one flag loop of the bench binaries. `apply`
/// gets each argument and a [`FlagValue`] that reads the argument's value
/// when asked, and returns `Ok(false)` for an argument it does not accept.
/// The first mistake ends the loop: an argument `apply` does not accept is
/// an unknown flag (an unexpected argument without a leading `-`), and a
/// missing or unparsable value is refused naming its flag.
pub fn read_flags<I, S>(
    args: I,
    mut apply: impl FnMut(&str, &mut FlagValue<'_>) -> Result<bool, String>,
) -> Result<(), String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut args = args.into_iter().map(|arg| arg.as_ref().to_string());
    while let Some(arg) = args.next() {
        if !apply(&arg, &mut FlagValue { flag: &arg, rest: &mut args })? {
            return Err(if arg.starts_with('-') {
                format!("unknown flag {arg:?}")
            } else {
                format!("unexpected argument {arg:?}")
            });
        }
    }
    Ok(())
}

/// The value of the flag [`read_flags`] is applying: the argument after it.
pub struct FlagValue<'a> {
    flag: &'a str,
    rest: &'a mut dyn Iterator<Item = String>,
}

impl FlagValue<'_> {
    /// The value as given; refused when the command line ends first.
    pub fn text(&mut self) -> Result<String, String> {
        self.rest.next().ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The value parsed as a number.
    pub fn number<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        self.parsed("a number", |text| text.parse().ok())
    }

    /// The value converted by `parse`; refused as not `what` when `parse`
    /// returns `None`.
    pub fn parsed<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let text = self.text()?;
        parse(&text).ok_or_else(|| format!("{}: not {what}: {text:?}", self.flag))
    }
}

/// Parses the process arguments (skipping the program name) with `parse`.
/// A command-line mistake prints `<program>: <message>` on stderr and exits
/// with status 2, before the program does anything else.
pub fn from_env<T>(parse: impl FnOnce(std::env::Args) -> Result<T, String>) -> T {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    parse(args).unwrap_or_else(|message| {
        let program = std::path::Path::new(&program).file_name().unwrap_or_default();
        eprintln!("{}: {message}", program.to_string_lossy());
        std::process::exit(2)
    })
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
        let cases: [(&[&str], &str); 6] = [
            (&["--verbose", "--lines", "40"], "unknown flag \"--verbose\""),
            (&["40"], "unexpected argument \"40\""),
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
