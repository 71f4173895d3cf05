//! `$`-option handling for network filters.

use http_model::{is_subdomain_or_same, ContentCategory};

/// First/third-party constraint from `$third-party` / `$~third-party`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartyConstraint {
    /// No constraint.
    #[default]
    Any,
    /// Only third-party requests (`$third-party`).
    ThirdOnly,
    /// Only first-party requests (`$~third-party`).
    FirstOnly,
}

/// Parsed `$` options of a network filter.
///
/// Content-type applicability is a bitmask over [`ContentCategory`]; a rule
/// with no type options applies to every category except `Document` and
/// `Subdocument` restrictions follow Adblock Plus semantics: plain blocking
/// rules apply to all resource types unless narrowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterOptions {
    /// Bitmask of categories the rule applies to.
    type_mask: u16,
    /// Whether any positive/negative type option was given (affects
    /// formatting only).
    pub has_type_options: bool,
    /// Domains the rule is restricted to (from `$domain=`). Empty = any.
    pub include_domains: Vec<String>,
    /// Domains the rule must not apply on (from `$domain=~...`).
    pub exclude_domains: Vec<String>,
    /// First/third-party constraint.
    pub party: PartyConstraint,
    /// Case-sensitive matching (`$match-case`).
    pub match_case: bool,
    /// `$document`: for exception rules, whitelists entire pages.
    pub document: bool,
    /// `$elemhide`: for exception rules, disables element hiding on a page.
    pub elemhide: bool,
}

impl Default for FilterOptions {
    fn default() -> Self {
        FilterOptions {
            type_mask: ALL_TYPES,
            has_type_options: false,
            include_domains: Vec::new(),
            exclude_domains: Vec::new(),
            party: PartyConstraint::Any,
            match_case: false,
            document: false,
            elemhide: false,
        }
    }
}

const fn bit(cat: ContentCategory) -> u16 {
    1 << (cat as u16)
}

/// Mask covering every category.
const ALL_TYPES: u16 = {
    let mut m = 0u16;
    let mut i = 0;
    while i < ContentCategory::ALL.len() {
        m |= 1 << (ContentCategory::ALL[i] as u16);
        i += 1;
    }
    m
};

/// Error for unknown/invalid option tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionError(pub String);

impl std::fmt::Display for OptionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid filter option: {}", self.0)
    }
}

impl std::error::Error for OptionError {}

impl FilterOptions {
    /// Parse the comma-separated text after `$`.
    pub fn parse(s: &str) -> Result<FilterOptions, OptionError> {
        let mut opts = FilterOptions::default();
        let mut include_types: u16 = 0;
        let mut exclude_types: u16 = 0;
        for raw in s.split(',') {
            let token = raw.trim();
            if token.is_empty() {
                continue;
            }
            let (neg, name) = match token.strip_prefix('~') {
                Some(rest) => (true, rest),
                None => (false, token),
            };
            let lower = name.to_ascii_lowercase();
            if let Some(cat) = ContentCategory::from_keyword(&lower) {
                // `$document` on its own is the page-whitelisting option; it
                // is also a type keyword. ABP treats `document` in blocking
                // context as a type; we record both and let the engine
                // interpret exceptions.
                opts.has_type_options = true;
                if cat == ContentCategory::Document && !neg {
                    opts.document = true;
                }
                if neg {
                    exclude_types |= bit(cat);
                } else {
                    include_types |= bit(cat);
                }
                continue;
            }
            match lower.as_str() {
                "third-party" => {
                    opts.party = if neg {
                        PartyConstraint::FirstOnly
                    } else {
                        PartyConstraint::ThirdOnly
                    };
                }
                "match-case" => {
                    if neg {
                        return Err(OptionError(token.to_string()));
                    }
                    opts.match_case = true;
                }
                "elemhide" => {
                    opts.elemhide = true;
                }
                _ if lower.starts_with("domain=") => {
                    // Each list is reserved at its final size, each domain
                    // lowercased in its one allocation.
                    let domains = || {
                        let domains = name["domain=".len()..].split('|').map(str::trim);
                        domains.filter(|d| !d.is_empty())
                    };
                    let excluded = domains().filter(|d| d.starts_with('~')).count();
                    let included = domains().count() - excluded;
                    opts.exclude_domains.reserve_exact(excluded);
                    opts.include_domains.reserve_exact(included);
                    for d in domains() {
                        match d.strip_prefix('~') {
                            Some(ex) => opts.exclude_domains.push(ex.to_ascii_lowercase()),
                            None => opts.include_domains.push(d.to_ascii_lowercase()),
                        }
                    }
                }
                _ => return Err(OptionError(token.to_string())),
            }
        }
        opts.type_mask = match (include_types, exclude_types) {
            (0, 0) => ALL_TYPES,
            (0, ex) => ALL_TYPES & !ex,
            (inc, ex) => inc & !ex,
        };
        Ok(opts)
    }

    /// Does the rule apply to this content category?
    pub(crate) fn applies_to_type(&self, cat: ContentCategory) -> bool {
        self.type_mask & bit(cat) != 0
    }

    /// The raw category bitmask, for the compiled engine's flat rule table.
    pub(crate) fn type_mask_bits(&self) -> u16 {
        self.type_mask
    }

    /// The bit for one category in [`Self::type_mask_bits`] terms.
    pub(crate) fn type_bit(cat: ContentCategory) -> u16 {
        bit(cat)
    }

    /// Does the rule apply given the page host the request originated from?
    /// `page_host == None` means no page context (treated as unrestricted
    /// unless the rule requires specific domains).
    pub(crate) fn applies_on_domain(&self, page_host: Option<&str>) -> bool {
        match page_host {
            Some(host) => {
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
            None => self.include_domains.is_empty(),
        }
    }

    /// Does the rule apply given the third-party status of the request?
    pub(crate) fn applies_to_party(&self, is_third_party: bool) -> bool {
        match self.party {
            PartyConstraint::Any => true,
            PartyConstraint::ThirdOnly => is_third_party,
            PartyConstraint::FirstOnly => !is_third_party,
        }
    }

    /// True when no option restricts this rule.
    pub(crate) fn is_unrestricted(&self) -> bool {
        self.type_mask == ALL_TYPES
            && self.include_domains.is_empty()
            && self.exclude_domains.is_empty()
            && self.party == PartyConstraint::Any
            && !self.match_case
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_applies_everywhere() {
        let o = FilterOptions::default();
        for cat in ContentCategory::ALL {
            assert!(o.applies_to_type(cat));
        }
        assert!(o.applies_on_domain(Some("x.com")));
        assert!(o.applies_on_domain(None));
        assert!(o.applies_to_party(true));
        assert!(o.applies_to_party(false));
        assert!(o.is_unrestricted());
    }

    #[test]
    fn positive_type_options() {
        let o = FilterOptions::parse("script,image").unwrap();
        assert!(o.applies_to_type(ContentCategory::Script));
        assert!(o.applies_to_type(ContentCategory::Image));
        assert!(!o.applies_to_type(ContentCategory::Media));
        assert!(!o.applies_to_type(ContentCategory::Document));
    }

    #[test]
    fn negative_type_options() {
        let o = FilterOptions::parse("~image").unwrap();
        assert!(!o.applies_to_type(ContentCategory::Image));
        assert!(o.applies_to_type(ContentCategory::Script));
    }

    #[test]
    fn mixed_type_options() {
        // include + exclude: include wins as the base set.
        let o = FilterOptions::parse("script,~image").unwrap();
        assert!(o.applies_to_type(ContentCategory::Script));
        assert!(!o.applies_to_type(ContentCategory::Image));
        assert!(!o.applies_to_type(ContentCategory::Media));
    }

    #[test]
    fn domain_option() {
        let o = FilterOptions::parse("domain=example.com|~sub.example.com").unwrap();
        assert!(o.applies_on_domain(Some("example.com")));
        assert!(o.applies_on_domain(Some("www.example.com")));
        assert!(!o.applies_on_domain(Some("sub.example.com")));
        assert!(!o.applies_on_domain(Some("deep.sub.example.com")));
        assert!(!o.applies_on_domain(Some("other.com")));
        assert!(!o.applies_on_domain(None));
    }

    #[test]
    fn exclude_only_domain_option() {
        let o = FilterOptions::parse("domain=~bad.com").unwrap();
        assert!(o.applies_on_domain(Some("good.com")));
        assert!(!o.applies_on_domain(Some("bad.com")));
        assert!(o.applies_on_domain(None));
    }

    #[test]
    fn party_options() {
        let t = FilterOptions::parse("third-party").unwrap();
        assert!(t.applies_to_party(true));
        assert!(!t.applies_to_party(false));
        let f = FilterOptions::parse("~third-party").unwrap();
        assert!(!f.applies_to_party(true));
        assert!(f.applies_to_party(false));
    }

    #[test]
    fn match_case_and_document() {
        let o = FilterOptions::parse("match-case").unwrap();
        assert!(o.match_case);
        let d = FilterOptions::parse("document").unwrap();
        assert!(d.document);
        assert!(d.applies_to_type(ContentCategory::Document));
        let e = FilterOptions::parse("elemhide").unwrap();
        assert!(e.elemhide);
    }

    #[test]
    fn unknown_option_is_error() {
        assert!(FilterOptions::parse("frobnicate").is_err());
        assert!(FilterOptions::parse("~match-case").is_err());
    }

    #[test]
    fn empty_and_whitespace_tokens_ignored() {
        let o = FilterOptions::parse("script, ,image,").unwrap();
        assert!(o.applies_to_type(ContentCategory::Script));
        assert!(o.applies_to_type(ContentCategory::Image));
    }

    #[test]
    fn case_insensitive_option_names() {
        let o = FilterOptions::parse("Script,THIRD-PARTY").unwrap();
        assert!(o.applies_to_type(ContentCategory::Script));
        assert_eq!(o.party, PartyConstraint::ThirdOnly);
    }

    #[test]
    fn domain_values_lowercased() {
        let o = FilterOptions::parse("domain=ExAmPlE.CoM").unwrap();
        assert!(o.applies_on_domain(Some("example.com")));
    }
}
