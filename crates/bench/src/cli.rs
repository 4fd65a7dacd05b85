//! The one flag parser behind `repro` and every subcommand.
//!
//! Each command declares its flags as a [`Command`] table: a name, a
//! value kind and a one-line help per flag. [`Command::main`] applies
//! every shared rule from that table before the command runs, so the
//! subcommands cannot drift apart:
//!
//! * `--help` / `-h` prints the usage rendered from the table to stdout
//!   and exits 0;
//! * an unknown argument exits 2 and names it;
//! * a value-taking flag with no value, or followed by another
//!   `--flag`, exits 2 and names the flag;
//! * an integer that is malformed or outside its range, or a word
//!   outside its closed set, exits 2 and names the flag.
//!
//! A flag given twice keeps its last value.
//!
//! Every gate (`serve --smoke`, `population --smoke`, `metrics --check`)
//! returns its verdicts as [`Check`]s and prints them with [`report`];
//! the tier-1 tests call the same gate functions and assert the result.

use std::fmt;

/// The most worker threads a `--workers` flag may ask for, shared by
/// `population`, `serve` and `lint`.
pub const MAX_WORKERS: u64 = 256;

/// A `--workers` thread count: `1..=MAX_WORKERS`.
pub const WORKERS: Value = Value::Int("N", 1, MAX_WORKERS);

/// Any `u64`, shown as `N`.
pub const U64: Value = Value::Int("N", 0, u64::MAX);

/// What follows a flag on the command line.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// Nothing: the flag is a switch.
    Switch,
    /// Free text such as a path, shown as its placeholder (`FILE`).
    Text(&'static str),
    /// An integer in `min..=max`, shown as its placeholder (`N`).
    Int(&'static str, u64, u64),
    /// One word of a closed set, shown as `a|b|c`.
    OneOf(&'static [&'static str]),
}

impl Value {
    /// Reject `raw` unless it is a value this kind accepts.
    fn check(self, flag: &str, raw: &str) -> Result<(), String> {
        match self {
            Value::Int(_, min, max) => match raw.parse::<u64>() {
                Ok(n) if (min..=max).contains(&n) => Ok(()),
                Ok(n) => Err(format!("{flag} must be in {min}..={max}, got {n}")),
                Err(e) => Err(format!(
                    "{flag} needs an integer in {min}..={max}, got {raw:?} ({e})"
                )),
            },
            Value::OneOf(words) if !words.contains(&raw) => Err(format!(
                "{flag} must be one of {}, got {raw:?}",
                words.join("|")
            )),
            _ => Ok(()),
        }
    }

    /// The value as the usage text shows it; empty for a switch.
    fn placeholder(self) -> String {
        match self {
            Value::Switch => String::new(),
            Value::Text(p) | Value::Int(p, ..) => p.to_string(),
            Value::OneOf(words) => words.join("|"),
        }
    }
}

/// One flag a command accepts.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag as typed, `--name`.
    pub name: &'static str,
    /// What follows it.
    pub value: Value,
    /// One line for the usage text.
    pub help: &'static str,
}

impl Flag {
    /// A table row.
    pub const fn new(name: &'static str, value: Value, help: &'static str) -> Flag {
        Flag { name, value, help }
    }

    /// `name` and its placeholder, as the usage text shows them.
    fn shown(&self) -> String {
        format!("{} {}", self.name, self.value.placeholder())
            .trim_end()
            .to_string()
    }
}

/// A command: its flag table, the single source for parsing, `--help`
/// and usage errors, and what it runs once its arguments parsed.
#[derive(Debug)]
pub struct Command {
    /// The subcommand word (`"lint"`), or `""` for `repro` itself.
    pub name: &'static str,
    /// Every flag the command accepts.
    pub flags: &'static [Flag],
    /// Commands selected by their name as the first argument; `--help`
    /// lists their synopses too.
    pub subcommands: &'static [&'static Command],
    /// The command itself; returns the process exit code.
    pub run: fn(&Args) -> i32,
}

impl Command {
    /// Hand `args` to the subcommand its first word names, or parse them
    /// against this table and run this command. Returns the process exit
    /// code: 0 after `--help`, 2 after a usage error, else the command's.
    pub fn main(&'static self, args: &[String]) -> i32 {
        let word = args.first().map(String::as_str);
        if let Some(sub) = self.subcommands.iter().find(|c| Some(c.name) == word) {
            return sub.main(&args[1..]);
        }
        match self.parse(args) {
            Ok(parsed) => (self.run)(&parsed),
            Err(None) => {
                print!("{}", self.usage());
                0
            }
            Err(Some(msg)) => self.refuse(&msg),
        }
    }

    /// Report a usage error: `message` on stderr, exit code 2.
    fn refuse(&self, message: &dyn fmt::Display) -> i32 {
        eprintln!("{0}: {message} (see `{0} --help`)", self.program());
        2
    }

    /// `repro` or `repro NAME`.
    fn program(&self) -> String {
        format!("repro {}", self.name).trim_end().to_string()
    }

    /// One line: the program and every flag with its placeholder.
    fn synopsis(&self) -> String {
        let flags = self.flags.iter().map(|f| format!(" [{}]", f.shown()));
        self.program() + &flags.collect::<String>()
    }

    /// The `--help` text: the synopsis, each subcommand's synopsis, then
    /// one line per flag.
    fn usage(&self) -> String {
        let mut text = format!("usage: {}\n", self.synopsis());
        for sub in self.subcommands {
            text += &format!("       {}\n", sub.synopsis());
        }
        let width = self
            .flags
            .iter()
            .map(|f| f.shown().len())
            .max()
            .unwrap_or(0);
        for flag in self.flags {
            let shown = flag.shown();
            text += &format!("  {shown:<width$}  {}\n", flag.help);
        }
        if !self.subcommands.is_empty() {
            text += "run `repro SUBCOMMAND --help` for a subcommand's flags\n";
        }
        text
    }

    /// Parse `args` against this table: `Err(None)` is a help request,
    /// `Err(Some(message))` a usage error naming the argument.
    fn parse<'a>(&'static self, args: &'a [String]) -> Result<Args<'a>, Option<String>> {
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(None);
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                return Err(Some(format!("unknown argument {arg:?}")));
            };
            let value = match flag.value {
                Value::Switch => None,
                kind => match it.next() {
                    Some(raw) if !raw.starts_with("--") => {
                        kind.check(flag.name, raw)?;
                        Some(raw.as_str())
                    }
                    _ => return Err(Some(format!("{} needs a value", flag.shown()))),
                },
            };
            given.push((flag.name, value));
        }
        Ok(Args {
            command: self,
            given,
        })
    }
}

/// Arguments that passed every rule of their [`Command`] table.
#[derive(Debug)]
pub struct Args<'a> {
    command: &'static Command,
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// The value of the last occurrence of `name`, if it was given.
    fn last(&self, name: &str) -> Option<Option<&'a str>> {
        debug_assert!(
            self.command.flags.iter().any(|f| f.name == name),
            "{name} is not in the `{}` flag table",
            self.command.program()
        );
        let mut given = self.given.iter().rev();
        given
            .find(|(flag, _)| *flag == name)
            .map(|(_, value)| *value)
    }

    /// Refuse values that passed the table but not a check only the
    /// command can make (a `StudyConfig` that fails validation): report
    /// `message` as a usage error and return its exit code, 2.
    pub fn refuse(&self, message: impl fmt::Display) -> i32 {
        self.command.refuse(&message)
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// The text (or closed-set word) given for `name`.
    pub fn text(&self, name: &str) -> Option<&'a str> {
        self.last(name).flatten()
    }

    /// The integer given for `name`. The table's range already held,
    /// so the conversion cannot fail while that range fits `T`.
    pub fn int<T: TryFrom<u64>>(&self, name: &str) -> Option<T> {
        let n = self.text(name)?.parse::<u64>().ok()?;
        let value = T::try_from(n).ok();
        debug_assert!(
            value.is_some(),
            "{name}: table range exceeds the field type"
        );
        value
    }
}

/// One verdict of a gate: what it checks, whether that held, and what
/// failed when it did not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// The gate's line, e.g. `"flow conservation"`.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Printed after the name when not empty.
    pub detail: String,
}

impl Check {
    /// A verdict whose name says everything.
    pub fn new(name: impl Into<String>, ok: bool) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: String::new(),
        }
    }

    /// A verdict with the numbers behind it.
    pub fn with(name: impl Into<String>, ok: bool, detail: String) -> Check {
        Check {
            detail,
            ..Check::new(name, ok)
        }
    }

    /// A verdict that holds when every named part does; the detail
    /// names the parts that failed.
    pub fn all(name: impl Into<String>, parts: &[(&str, bool)]) -> Check {
        let failed: Vec<&str> = parts.iter().filter(|p| !p.1).map(|p| p.0).collect();
        Check::with(name, failed.is_empty(), failed.join("; "))
    }
}

/// Print one `[ ok ]` or `[FAIL]` line per check to stdout and return
/// how many failed. A `repro` gate exits 1 unless this is 0; the
/// tier-1 test that runs the same checks asserts it is 0, so a failing
/// test shows the lines the gate would print.
pub fn report(checks: &[Check]) -> usize {
    for c in checks {
        let verdict = if c.ok { " ok " } else { "FAIL" };
        match c.detail.as_str() {
            "" => println!("  [{verdict}] {}", c.name),
            detail => println!("  [{verdict}] {}: {detail}", c.name),
        }
    }
    checks.iter().filter(|c| !c.ok).count()
}

#[cfg(test)]
mod tests {
    use super::Value::{Int, OneOf, Switch, Text};
    use super::*;

    const DEMO: Command = Command {
        name: "demo",
        flags: &[
            Flag::new("--smoke", Switch, "a switch"),
            Flag::new("--json", Text("FILE"), "a path"),
            Flag::new(
                "--shards",
                Int("N", 1, u32::MAX as u64),
                "a bounded integer",
            ),
            Flag::new("--preset", OneOf(&["none", "light"]), "a closed set"),
        ],
        subcommands: &[],
        run: |_| 0,
    };

    fn parse(args: &[&str]) -> Result<Args<'static>, Option<String>> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        DEMO.parse(Vec::leak(owned))
    }

    fn error(args: &[&str]) -> String {
        match parse(args) {
            Err(Some(msg)) => msg,
            other => panic!("{args:?} must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn values_reach_the_accessors() {
        let args = parse(&["--json", "out.json", "--shards", "7", "--smoke"]).unwrap();
        assert!(args.switch("--smoke"));
        assert_eq!(args.text("--json"), Some("out.json"));
        assert_eq!(args.int::<u32>("--shards"), Some(7));
        assert_eq!(args.text("--preset"), None);
        let args = parse(&["--shards", "1", "--shards", "4294967295"]).unwrap();
        assert_eq!(args.int::<u32>("--shards"), Some(u32::MAX), "last one wins");
        assert!(!args.switch("--smoke"));
    }

    #[test]
    fn every_usage_error_names_its_argument() {
        for (args, named) in [
            (&["--bogus"][..], "--bogus"),
            (&["smoke"][..], "smoke"),
            (&["--json"][..], "--json"),
            (&["--json", "--smoke"][..], "--json"),
            (&["--shards", "0"][..], "--shards"),
            (&["--shards", "4294967296"][..], "--shards"),
            (&["--shards", "-1"][..], "--shards"),
            (&["--shards", "x"][..], "--shards"),
            (&["--preset", "heavy"][..], "--preset"),
        ] {
            let msg = error(args);
            assert!(msg.contains(named), "{args:?}: {msg}");
        }
    }

    #[test]
    fn help_wins_and_is_not_an_error() {
        assert_eq!(parse(&["-h"]).unwrap_err(), None);
        assert_eq!(parse(&["--smoke", "--help", "--bogus"]).unwrap_err(), None);
    }

    #[test]
    fn usage_lists_every_flag_with_its_placeholder() {
        let usage = DEMO.usage();
        assert!(usage.starts_with(
            "usage: repro demo [--smoke] [--json FILE] [--shards N] [--preset none|light]\n"
        ));
        for flag in DEMO.flags {
            assert!(usage.contains(flag.help), "{usage}");
        }
    }
}
