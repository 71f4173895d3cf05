//! The one argv cursor every `experiments` subcommand parses with.
//!
//! A subcommand hands [`Args`] its name, its one `USAGE` string and its
//! arguments, then spells its whole grammar as a plain `match`, one arm
//! per flag:
//!
//! ```text
//! while let Some(flag) = a.next() {
//!     match flag {
//!         "--trace" => trace = Some(a.path(flag)),
//!         "--threads" => threads = a.bounded(flag, 1..),
//!         "--resume" => resume = true,
//!         other => a.unknown(other),
//!     }
//! }
//! ```
//!
//! A *usage* error (unknown flag, missing or malformed value) names the
//! flag, prints the usage and exits 2; a *runtime* failure (cannot read,
//! write, bind, digest) goes through [`die`]: exit 1, no usage text.

use std::ops::RangeBounds;
use std::path::PathBuf;
use std::str::FromStr;

pub struct Args<'a> {
    name: &'a str,
    usage: &'a str,
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    pub fn new(name: &'a str, usage: &'a str, args: &'a [String]) -> Args<'a> {
        Args {
            name,
            usage,
            rest: args.iter(),
        }
    }

    /// The next token; `--help`/`-h` is answered here (usage, exit 0).
    pub fn next(&mut self) -> Option<&'a str> {
        let token = self.rest.next()?.as_str();
        if token == "--help" || token == "-h" {
            self.exit_with_usage(0);
        }
        Some(token)
    }

    /// The value of `flag`: the token after it, which must exist.
    pub fn value(&mut self, flag: &str) -> &'a str {
        match self.rest.next() {
            Some(v) => v,
            None => self.usage_error(&format!("{flag} requires a value")),
        }
    }

    pub fn parsed<T: FromStr + PartialOrd>(&mut self, flag: &str) -> T {
        self.bounded(flag, ..)
    }

    /// [`Args::parsed`], refusing a value outside `range` (`1..` for the
    /// counts that must be at least one).
    pub fn bounded<T: FromStr + PartialOrd>(
        &mut self,
        flag: &str,
        range: impl RangeBounds<T>,
    ) -> T {
        let v = self.value(flag);
        match v.parse() {
            Ok(n) if range.contains(&n) => n,
            _ => self.usage_error(&format!("bad {flag} value {v:?}")),
        }
    }

    pub fn path(&mut self, flag: &str) -> PathBuf {
        PathBuf::from(self.value(flag))
    }

    pub fn unknown(&self, token: &str) -> ! {
        self.usage_error(&format!("unknown {} argument {token:?}", self.name))
    }

    pub fn usage_error(&self, msg: &str) -> ! {
        eprintln!("error: {msg}");
        self.exit_with_usage(2)
    }

    fn exit_with_usage(&self, code: i32) -> ! {
        eprintln!("usage: {}", self.usage);
        std::process::exit(code);
    }
}

/// A runtime failure: one `error:` line on stderr, exit 1.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
