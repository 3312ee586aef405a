//! Rule sets: a parsed language configuration plus typed accessors.

use crate::error::Result;
use crate::rewrite::config::Config;
use std::sync::Arc;

/// Built-in query languages (the paper's four proof-of-concept targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    /// SQL++ (Apache AsterixDB).
    SqlPlusPlus,
    /// SQL (PostgreSQL, Greenplum).
    Sql,
    /// MongoDB aggregation pipelines.
    Mongo,
    /// Cypher (Neo4j).
    Cypher,
}

impl Language {
    /// The embedded configuration text for this language.
    pub fn config_text(self) -> &'static str {
        match self {
            Language::SqlPlusPlus => include_str!("../../configs/sqlpp.ini"),
            Language::Sql => include_str!("../../configs/sql.ini"),
            Language::Mongo => include_str!("../../configs/mongo.ini"),
            Language::Cypher => include_str!("../../configs/cypher.ini"),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Language::SqlPlusPlus => "sql++",
            Language::Sql => "sql",
            Language::Mongo => "mongodb",
            Language::Cypher => "cypher",
        }
    }
}

/// A complete set of rewrite rules for one target language.
///
/// Rule sets are cheap to clone (`Arc` inside) and support **user-defined
/// rewrites**: [`RuleSet::with_overrides`] layers custom rules over the
/// base configuration, which is how the paper lets users "leverage a
/// system's language-specific capabilities".
#[derive(Debug, Clone)]
pub struct RuleSet {
    language_name: String,
    config: Arc<Config>,
}

impl RuleSet {
    /// Load the built-in rules for `language`.
    pub fn builtin(language: Language) -> RuleSet {
        let config = Config::parse(language.config_text()).expect("embedded configs must parse");
        RuleSet {
            language_name: language.name().to_string(),
            config: Arc::new(config),
        }
    }

    /// Load a fully custom rule set from configuration text.
    pub fn from_config_text(name: impl Into<String>, text: &str) -> Result<RuleSet> {
        Ok(RuleSet {
            language_name: name.into(),
            config: Arc::new(Config::parse(text)?),
        })
    }

    /// Layer user-defined rewrites (configuration text) over this rule set.
    pub fn with_overrides(&self, overrides_text: &str) -> Result<RuleSet> {
        let overrides = Config::parse(overrides_text)?;
        let mut merged = (*self.config).clone();
        merged.merge_from(&overrides);
        Ok(RuleSet {
            language_name: self.language_name.clone(),
            config: Arc::new(merged),
        })
    }

    /// The target language's display name.
    pub fn language_name(&self) -> &str {
        &self.language_name
    }

    /// Raw template lookup.
    pub fn template(&self, section: &str, key: &str) -> Result<&str> {
        self.config.require(section, key)
    }

    /// Optional template lookup.
    pub fn template_opt(&self, section: &str, key: &str) -> Option<&str> {
        self.config.get(section, key)
    }

    /// A `[QUERIES]` template.
    pub fn query(&self, key: &str) -> Result<&str> {
        self.template("QUERIES", key)
    }

    /// An `[ATTRIBUTES]` template.
    pub fn attribute(&self, key: &str) -> Result<&str> {
        self.template("ATTRIBUTES", key)
    }

    /// A `[FUNCTIONS]` template (aggregates and scalar functions).
    pub fn function(&self, key: &str) -> Result<&str> {
        self.template("FUNCTIONS", key)
    }

    /// A `[COMPARISON STATEMENTS]` template.
    pub fn comparison(&self, key: &str) -> Result<&str> {
        self.template("COMPARISON STATEMENTS", key)
    }

    /// An `[ARITHMETIC STATEMENTS]` template.
    pub fn arithmetic(&self, key: &str) -> Result<&str> {
        self.template("ARITHMETIC STATEMENTS", key)
    }

    /// A `[LOGICAL STATEMENTS]` template.
    pub fn logical(&self, key: &str) -> Result<&str> {
        self.template("LOGICAL STATEMENTS", key)
    }

    /// A `[LIMIT]` template.
    pub fn limit_rule(&self, key: &str) -> Result<&str> {
        self.template("LIMIT", key)
    }

    /// Render a string literal per the `[LITERALS]` rule. A string that
    /// starts with `$` takes the `dollar_string` rule when the language
    /// has one: MongoDB reads such a string as a field path.
    pub fn string_literal(&self, value: &str) -> Result<String> {
        let template = match self.template_opt("LITERALS", "dollar_string") {
            Some(rule) if value.starts_with('$') => rule,
            _ => self.template("LITERALS", "string")?,
        };
        Ok(crate::rewrite::config::subst(template, &[("value", value)]))
    }

    /// The `[NULL]` missing-value predicate.
    pub fn is_missing(&self, operand: &str) -> Result<String> {
        let template = self.template("NULL", "is_missing")?;
        Ok(crate::rewrite::config::subst(
            template,
            &[("operand", operand)],
        ))
    }
}

impl RuleSet {
    /// Every built-in language must provide this rule vocabulary; checked
    /// by tests so a retarget to a new language knows what to supply.
    pub const REQUIRED_QUERY_RULES: [&'static str; 11] = [
        "records",
        "project",
        "map",
        "count_all",
        "sort_desc",
        "sort_asc",
        "filter",
        "agg_value",
        "agg_multi",
        "groupby_agg",
        "join",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_languages_parse_and_are_complete() {
        for lang in [
            Language::SqlPlusPlus,
            Language::Sql,
            Language::Mongo,
            Language::Cypher,
        ] {
            let rules = RuleSet::builtin(lang);
            for key in RuleSet::REQUIRED_QUERY_RULES {
                assert!(
                    rules.query(key).is_ok(),
                    "{} is missing [QUERIES] {key}",
                    lang.name()
                );
            }
            for func in ["min", "max", "avg", "count", "std", "upper"] {
                assert!(rules.function(func).is_ok(), "{}: {func}", lang.name());
            }
            for cmp in ["eq", "ne", "gt", "lt", "ge", "le"] {
                assert!(rules.comparison(cmp).is_ok(), "{}: {cmp}", lang.name());
            }
            assert!(rules.limit_rule("limit").is_ok());
            assert!(rules.limit_rule("return_all").is_ok());
            assert!(rules.is_missing("x").is_ok());
        }
    }

    #[test]
    fn sample_rules_match_the_paper() {
        let cypher = RuleSet::builtin(Language::Cypher);
        assert_eq!(cypher.query("records").unwrap(), "MATCH(t: $collection)");
        assert_eq!(cypher.function("min").unwrap(), "min(t.$attribute)");
        assert_eq!(cypher.function("std").unwrap(), "stDevP(t.$attribute)");

        let mongo = RuleSet::builtin(Language::Mongo);
        assert_eq!(mongo.query("records").unwrap(), r#"{ "$match": {} }"#);
        assert_eq!(mongo.function("min").unwrap(), r#""$min": "$$attribute""#);
        assert_eq!(
            mongo.function("std").unwrap(),
            r#""$stdDevPop": "$$attribute""#
        );
        assert_eq!(
            mongo.comparison("eq").unwrap(),
            r#""$eq": ["$$left", $right]"#
        );

        let sqlpp = RuleSet::builtin(Language::SqlPlusPlus);
        assert_eq!(
            sqlpp.query("records").unwrap(),
            "SELECT VALUE t FROM $namespace.$collection t"
        );
        assert_eq!(sqlpp.function("min").unwrap(), "MIN($attribute)");
    }

    #[test]
    fn string_literals_differ_by_language() {
        assert_eq!(
            RuleSet::builtin(Language::Sql)
                .string_literal("en")
                .unwrap(),
            "'en'"
        );
        assert_eq!(
            RuleSet::builtin(Language::SqlPlusPlus)
                .string_literal("en")
                .unwrap(),
            "\"en\""
        );
    }

    #[test]
    fn user_overrides_take_precedence() {
        let base = RuleSet::builtin(Language::Cypher);
        let custom = base
            .with_overrides("[FUNCTIONS]\nstd = customStd(t.$attribute)\n")
            .unwrap();
        assert_eq!(custom.function("std").unwrap(), "customStd(t.$attribute)");
        // Untouched rules still present.
        assert_eq!(custom.function("min").unwrap(), "min(t.$attribute)");
        // The base is unchanged.
        assert_eq!(base.function("std").unwrap(), "stDevP(t.$attribute)");
    }

    #[test]
    fn missing_rule_error_is_descriptive() {
        let rules = RuleSet::builtin(Language::Sql);
        let err = rules.query("teleport").unwrap_err();
        assert!(err.to_string().contains("teleport"));
    }
}
