//! Parser for PolyFrame language-configuration files.
//!
//! The format mirrors the paper's appendix B/C: INI-style `[SECTION]`
//! headers, `key = value` entries, `;` comments, and multi-line values
//! written as continuation lines that start with whitespace:
//!
//! ```text
//! ;q4: sort based on an attribute in descending order
//! [QUERIES]
//! q4 = $subquery
//!  WITH t ORDER BY $sort_desc_attr DESC
//! ```
//!
//! Continuation lines are joined with `"\n "` (newline + one space), which
//! is exactly how the appendix renders them.

use crate::error::{PolyFrameError, Result};
use std::collections::BTreeMap;

/// A parsed configuration: `section -> key -> template`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, String>>,
}

impl Config {
    /// Parse configuration text.
    pub fn parse(text: &str) -> Result<Config> {
        let mut cfg = Config::default();
        let mut section: Option<String> = None;
        let mut current_key: Option<String> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.trim_start().starts_with(';') {
                continue; // comment
            }
            if line.trim().is_empty() {
                current_key = None;
                continue;
            }
            if line.starts_with('[') {
                let name = line
                    .trim()
                    .strip_prefix('[')
                    .and_then(|s| s.strip_suffix(']'))
                    .ok_or_else(|| {
                        PolyFrameError::Config(format!("line {}: malformed section", lineno + 1))
                    })?;
                section = Some(name.trim().to_uppercase());
                current_key = None;
                continue;
            }
            let in_section = section.clone().ok_or_else(|| {
                PolyFrameError::Config(format!("line {}: entry before any [SECTION]", lineno + 1))
            })?;
            if raw.starts_with(' ') || raw.starts_with('\t') {
                // Continuation line.
                let key = current_key.clone().ok_or_else(|| {
                    PolyFrameError::Config(format!(
                        "line {}: continuation with no preceding key",
                        lineno + 1
                    ))
                })?;
                let entry = cfg
                    .sections
                    .get_mut(&in_section)
                    .and_then(|s| s.get_mut(&key))
                    .expect("current_key always exists");
                entry.push_str("\n ");
                entry.push_str(line.trim_start());
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                PolyFrameError::Config(format!("line {}: expected `key = value`", lineno + 1))
            })?;
            let key = key.trim().to_string();
            let value = value.trim_start().to_string();
            current_key = Some(key.clone());
            cfg.sections
                .entry(in_section)
                .or_default()
                .insert(key, value);
        }
        Ok(cfg)
    }

    /// Fetch a template.
    pub fn get(&self, section: &str, key: &str) -> Option<&str> {
        self.sections
            .get(&section.to_uppercase())
            .and_then(|s| s.get(key))
            .map(String::as_str)
    }

    /// Fetch a template or fail with a descriptive error.
    pub fn require(&self, section: &str, key: &str) -> Result<&str> {
        self.get(section, key).ok_or_else(|| {
            PolyFrameError::Config(format!("missing rewrite rule [{section}] {key}"))
        })
    }

    /// Merge `other` over this config (user-defined rewrites override).
    pub fn merge_from(&mut self, other: &Config) {
        for (sec, entries) in &other.sections {
            let slot = self.sections.entry(sec.clone()).or_default();
            for (k, v) in entries {
                slot.insert(k.clone(), v.clone());
            }
        }
    }

    /// Section names (diagnostics).
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }
}

/// Substitute `$var` placeholders in one left-to-right pass over the
/// template. At each `$` the longest matching variable name wins, so
/// `$agg_alias` is never clobbered by a hypothetical `$agg`. Inserted
/// values are never rescanned, so a user literal such as `'$left'` stays
/// literal. A `$` that starts no variable is copied as is, which makes
/// the appendix idiom `"$$attribute"` work: substituting
/// `attribute = ten` yields `"$ten"`.
pub fn subst(template: &str, vars: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    while let Some(at) = rest.find('$') {
        out.push_str(&rest[..at]);
        let after = &rest[at + 1..];
        let hit = vars
            .iter()
            .filter(|(name, _)| after.starts_with(name))
            .max_by_key(|(name, _)| name.len());
        match hit {
            Some((name, value)) => {
                out.push_str(value);
                rest = &after[name.len()..];
            }
            None => {
                out.push('$');
                rest = after;
            }
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
;q1: select all records from a collection
[QUERIES]
q1 = MATCH(t: $collection)
q4 = $subquery
 WITH t ORDER BY $sort_desc_attr DESC

[FUNCTIONS]
min = min(t.$attribute)
"#;

    #[test]
    fn parses_sections_and_continuations() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.get("QUERIES", "q1"), Some("MATCH(t: $collection)"));
        assert_eq!(
            cfg.get("queries", "q4"),
            Some("$subquery\n WITH t ORDER BY $sort_desc_attr DESC")
        );
        assert_eq!(cfg.get("FUNCTIONS", "min"), Some("min(t.$attribute)"));
        assert_eq!(cfg.get("FUNCTIONS", "nope"), None);
    }

    #[test]
    fn comments_ignored() {
        let cfg =
            Config::parse("; a comment\n[A]\nx = 1 ; not a comment marker mid-line\n").unwrap();
        assert_eq!(cfg.get("A", "x"), Some("1 ; not a comment marker mid-line"));
    }

    #[test]
    fn errors() {
        assert!(Config::parse("x = 1\n").is_err()); // entry before section
        assert!(Config::parse("[A\nx = 1\n").is_err()); // malformed header
        assert!(Config::parse("[A]\n continuation first\n").is_err());
        assert!(Config::parse("[A]\nno equals sign\n").is_err());
    }

    #[test]
    fn merge_overrides() {
        let mut base = Config::parse("[Q]\na = 1\nb = 2\n").unwrap();
        let over = Config::parse("[Q]\nb = 99\n[NEW]\nc = 3\n").unwrap();
        base.merge_from(&over);
        assert_eq!(base.get("Q", "a"), Some("1"));
        assert_eq!(base.get("Q", "b"), Some("99"));
        assert_eq!(base.get("NEW", "c"), Some("3"));
    }

    #[test]
    fn substitution() {
        assert_eq!(
            subst(
                "SELECT $agg_func FROM ($subquery) t",
                &[
                    ("agg_func", "MAX(t.age)"),
                    ("subquery", "SELECT VALUE t FROM d t"),
                ]
            ),
            "SELECT MAX(t.age) FROM (SELECT VALUE t FROM d t) t"
        );
    }

    #[test]
    fn double_dollar_idiom() {
        // The appendix's `"$$attribute"` renders a mongo field reference.
        assert_eq!(
            subst(r#""$min": "$$attribute""#, &[("attribute", "unique1")]),
            r#""$min": "$unique1""#
        );
        // `"$$left"` survives when no `left` variable is supplied.
        assert_eq!(
            subst(r#"["$$right_attr", "$$left"]"#, &[("right_attr", "u")]),
            r#"["$u", "$$left"]"#
        );
    }

    #[test]
    fn longest_name_first() {
        assert_eq!(
            subst(
                "$attr_alias and $attr",
                &[("attr", "x"), ("attr_alias", "y")]
            ),
            "y and x"
        );
    }

    #[test]
    fn inserted_values_are_never_rescanned() {
        // A user literal that spells a variable name stays literal.
        assert_eq!(
            subst("$left = $right", &[("left", "t.s"), ("right", "'$left'")]),
            "t.s = '$left'"
        );
        assert_eq!(
            subst(
                "SELECT $projection FROM ($subquery) t",
                &[("subquery", "SELECT '$projection'"), ("projection", "t.a")]
            ),
            "SELECT t.a FROM (SELECT '$projection') t"
        );
    }
}
