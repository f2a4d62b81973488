//! Minimal flag parser: `--key value` pairs plus boolean `--switch`es.

use std::collections::BTreeMap;
use std::fmt;

/// CLI argument errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--flag` given without a value where one is required.
    MissingValue(String),
    /// Value failed to parse for the flag.
    BadValue {
        /// Flag name.
        flag: String,
        /// Raw value.
        value: String,
        /// Expected type description.
        expected: &'static str,
    },
    /// A positional token or a flag no command reads appeared.
    Unknown(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} requires a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "flag --{flag}: cannot parse {value:?} as {expected}")
            }
            ArgError::Unknown(tok) => write!(f, "unexpected argument {tok:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed flags. Boolean switches store an empty value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

/// Every flag some command reads. Any other `--name` is rejected, so a
/// typo (`--sampel 20`) fails instead of silently running with the
/// default.
const FLAGS: &[&str] = &[
    "addr",
    "all",
    "base-kernel",
    "cluster-machines",
    "compression",
    "csv",
    "dot",
    "drain-timeout",
    "help",
    "instances",
    "jobs",
    "machines",
    "max-bad-rows",
    "max-body",
    "max-conns",
    "min-confidence",
    "n",
    "online",
    "out",
    "policy",
    "queue-depth",
    "replay",
    "request-deadline",
    "sample",
    "seed",
    "snapshot",
    "threads",
    "timings",
    "trace",
    "wl-iterations",
];

/// Flags that work without a value. They still accept one when the next
/// token is not another flag (`--machines 64`), so the same name can be
/// a boolean switch for one command and a count for another.
const SWITCHES: &[&str] = &["instances", "machines", "help", "all", "timings"];

impl Flags {
    /// Parse a token stream (without the program / subcommand names).
    pub fn parse(tokens: &[String]) -> Result<Flags, ArgError> {
        let mut values = BTreeMap::new();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            let Some(name) = tok.strip_prefix("--").filter(|n| FLAGS.contains(n)) else {
                return Err(ArgError::Unknown(tok.clone()));
            };
            if SWITCHES.contains(&name) {
                match tokens.get(i + 1) {
                    Some(value) if !value.starts_with("--") => {
                        values.insert(name.to_string(), value.clone());
                        i += 2;
                    }
                    _ => {
                        values.insert(name.to_string(), String::new());
                        i += 1;
                    }
                }
                continue;
            }
            let Some(value) = tokens.get(i + 1) else {
                return Err(ArgError::MissingValue(name.to_string()));
            };
            if value.starts_with("--") {
                return Err(ArgError::MissingValue(name.to_string()));
            }
            values.insert(name.to_string(), value.clone());
            i += 2;
        }
        Ok(Flags { values })
    }

    /// Boolean switch presence.
    pub fn switch(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// String value with default.
    pub fn str_or(&self, name: &str, default: &str) -> String {
        self.values
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Optional string value.
    pub fn str_opt(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Typed value with default.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.values.get(name) {
            None => Ok(default),
            // A bare switch (`--machines`) stores an empty value; typed
            // reads treat that the same as the flag being absent.
            Some(raw) if raw.is_empty() => Ok(default),
            Some(raw) => raw.parse::<T>().map_err(|_| ArgError::BadValue {
                flag: name.to_string(),
                value: raw.clone(),
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let f = Flags::parse(&toks("--jobs 500 --instances --seed 7")).unwrap();
        assert_eq!(f.get_or("jobs", 0usize, "usize").unwrap(), 500);
        assert_eq!(f.get_or("seed", 0u64, "u64").unwrap(), 7);
        assert!(f.switch("instances"));
        assert!(!f.switch("machines"));
        assert_eq!(f.get_or("sample", 100usize, "usize").unwrap(), 100);
    }

    #[test]
    fn switches_accept_an_optional_value() {
        // `--machines 64` carries the value; a bare `--machines` (or one
        // followed by another flag) stays a boolean and typed reads fall
        // back to the default.
        let f = Flags::parse(&toks("--machines 64 --jobs 10")).unwrap();
        assert!(f.switch("machines"));
        assert_eq!(
            f.get_or("machines", 48usize, "a machine count").unwrap(),
            64
        );
        let f = Flags::parse(&toks("--machines --jobs 10")).unwrap();
        assert!(f.switch("machines"));
        assert_eq!(
            f.get_or("machines", 48usize, "a machine count").unwrap(),
            48
        );
    }

    #[test]
    fn missing_value_detected() {
        assert_eq!(
            Flags::parse(&toks("--jobs")).unwrap_err(),
            ArgError::MissingValue("jobs".into())
        );
        assert_eq!(
            Flags::parse(&toks("--jobs --seed 1")).unwrap_err(),
            ArgError::MissingValue("jobs".into())
        );
    }

    #[test]
    fn bad_value_reports_type() {
        let f = Flags::parse(&toks("--jobs many")).unwrap();
        let err = f.get_or("jobs", 0usize, "a job count").unwrap_err();
        assert!(err.to_string().contains("a job count"));
    }

    #[test]
    fn unknown_positional_or_flag_rejected() {
        assert_eq!(
            Flags::parse(&toks("oops")).unwrap_err(),
            ArgError::Unknown("oops".into())
        );
        assert_eq!(
            Flags::parse(&toks("--jobs 10 --sampel 20")).unwrap_err(),
            ArgError::Unknown("--sampel".into())
        );
    }

    #[test]
    fn string_accessors() {
        let f = Flags::parse(&toks("--out /tmp/x")).unwrap();
        assert_eq!(f.str_or("out", "default"), "/tmp/x");
        assert_eq!(f.str_or("other", "default"), "default");
        assert_eq!(f.str_opt("out"), Some("/tmp/x"));
        assert_eq!(f.str_opt("missing"), None);
    }
}
