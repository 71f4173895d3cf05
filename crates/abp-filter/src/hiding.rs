//! Element-hiding rules (`##` / `#@#`).
//!
//! Element hiding never blocks network traffic — the paper stresses that
//! embedded text ads *are transferred over the network* and only hidden at
//! render time (§2, §3.1). The browser simulator uses these rules to decide
//! which embedded ads a plugin-equipped browser hides, and the passive
//! methodology correctly cannot see them; the facade's ground-truth
//! validation quantifies that blind spot.

use http_model::is_subdomain_or_same;

/// One element-hiding rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HidingRule {
    /// Domains the rule is limited to. Empty = global rule.
    pub include_domains: Vec<String>,
    /// Domains excluded via `~domain`.
    pub exclude_domains: Vec<String>,
    /// The CSS selector to hide.
    pub selector: String,
    /// True for `#@#` exception rules.
    pub is_exception: bool,
}

impl HidingRule {
    /// Build a rule from the domain list (text before `##`) and selector.
    pub fn new(domains: &str, selector: &str, is_exception: bool) -> HidingRule {
        let mut include = Vec::new();
        let mut exclude = Vec::new();
        for d in domains.split(',') {
            let d = d.trim().to_ascii_lowercase();
            if d.is_empty() {
                continue;
            }
            if let Some(ex) = d.strip_prefix('~') {
                exclude.push(ex.to_string());
            } else {
                include.push(d);
            }
        }
        HidingRule {
            include_domains: include,
            exclude_domains: exclude,
            selector: selector.to_string(),
            is_exception,
        }
    }

    /// Does this rule apply on the given page host?
    pub(crate) fn applies_to(&self, host: &str) -> bool {
        if self
            .exclude_domains
            .iter()
            .any(|d| is_subdomain_or_same(host, d))
        {
            return false;
        }
        self.include_domains.is_empty()
            || self
                .include_domains
                .iter()
                .any(|d| is_subdomain_or_same(host, d))
    }
}

/// Resolve the set of selectors hidden on `host` given a rule collection:
/// hiding rules that apply minus selectors with a matching exception.
pub fn selectors_for<'a>(rules: &'a [HidingRule], host: &str) -> Vec<&'a str> {
    let mut hidden: Vec<&str> = Vec::new();
    for r in rules
        .iter()
        .filter(|r| !r.is_exception && r.applies_to(host))
    {
        hidden.push(r.selector.as_str());
    }
    hidden.retain(|sel| {
        !rules
            .iter()
            .any(|r| r.is_exception && r.applies_to(host) && r.selector == *sel)
    });
    hidden.sort_unstable();
    hidden.dedup();
    hidden
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::FilterList;

    fn parsed(text: &str) -> Vec<HidingRule> {
        FilterList::parse("easylist", text).hiding
    }

    #[test]
    fn domain_scoping() {
        let r = HidingRule::new("example.com,~shop.example.com", ".ad", false);
        assert!(r.applies_to("example.com"));
        assert!(r.applies_to("news.example.com"));
        assert!(!r.applies_to("shop.example.com"));
        assert!(!r.applies_to("unrelated.org"));
    }

    #[test]
    fn global_rule() {
        let r = HidingRule::new("", ".textad", false);
        assert!(r.applies_to("any.site"));
    }

    #[test]
    fn exceptions_remove_selectors() {
        let rules = vec![
            HidingRule::new("", ".ad", false),
            HidingRule::new("", ".banner", false),
            HidingRule::new("special.com", ".ad", true),
        ];
        let on_special = selectors_for(&rules, "special.com");
        assert_eq!(on_special, vec![".banner"]);
        let elsewhere = selectors_for(&rules, "other.com");
        assert_eq!(elsewhere, vec![".ad", ".banner"]);
    }

    #[test]
    fn dedup_selectors() {
        let rules = vec![
            HidingRule::new("", ".ad", false),
            HidingRule::new("x.com", ".ad", false),
        ];
        assert_eq!(selectors_for(&rules, "x.com"), vec![".ad"]);
    }

    #[test]
    fn selectors_for_a_parsed_list() {
        let rules = parsed("##.adbox\nexample.com#@#.adbox\n");
        assert_eq!(selectors_for(&rules, "other.com"), vec![".adbox"]);
        assert!(selectors_for(&rules, "example.com").is_empty());
    }

    #[test]
    fn selectors_for_domain_scoped_rules() {
        let rules = parsed(
            "example.com##.sponsored\nexample.com,other.org##.promo\n\
             ~shop.example.com##.sitewide\nexample.com#@#.sitewide\n",
        );
        assert_eq!(
            selectors_for(&rules, "news.example.com"),
            vec![".promo", ".sponsored"]
        );
        assert_eq!(
            selectors_for(&rules, "other.org"),
            vec![".promo", ".sitewide"]
        );
        // `.sitewide` is excluded on shop.example.com, but the rules that
        // include example.com still apply there (it is a subdomain).
        assert_eq!(
            selectors_for(&rules, "shop.example.com"),
            vec![".promo", ".sponsored"]
        );
        assert_eq!(selectors_for(&rules, "unrelated.net"), vec![".sitewide"]);
    }
}
