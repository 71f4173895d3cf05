//! Autonomous-system registry.
//!
//! Table 5 of the paper groups the top ad-serving ASes into four player
//! categories: a search giant, cloud providers, CDNs and dedicated ad-tech
//! companies. The synthetic registry instantiates fictional counterparts of
//! each category plus a hosting tail for small publishers.

/// AS identifier (index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

/// Player category of an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsKind {
    /// Search giant running search, video streaming, analytics and a large
    /// ad exchange (the paper's Google analogue).
    SearchGiant,
    /// General-purpose cloud (EC2/AWS/Hetzner/MyLoc/SoftLayer analogues).
    Cloud,
    /// Content delivery network (Akamai/SoftLayer analogues).
    Cdn,
    /// Dedicated ad-tech company operating its own AS (AppNexus/Criteo
    /// analogues).
    AdTech,
    /// Hosting provider carrying the long tail of publishers.
    Hosting,
    /// Legacy portal/media conglomerate (AOL analogue).
    Portal,
}

/// One autonomous system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsInfo {
    /// Identifier.
    pub id: AsId,
    /// Fictional name used in reports.
    pub name: String,
    /// Player category.
    pub kind: AsKind,
}

/// The AS registry.
#[derive(Debug, Clone, Default)]
pub struct AsRegistry {
    ases: Vec<AsInfo>,
}

impl AsRegistry {
    /// The standard registry used by the ecosystem generator. The names are
    /// fictional stand-ins for the Table 5 players.
    pub(crate) fn standard() -> AsRegistry {
        let mut r = AsRegistry::default();
        // Order matters only for readability of reports.
        r.add("Gigglesearch", AsKind::SearchGiant); // Google analogue
        r.add("Nimbus-EC", AsKind::Cloud); // Amazon EC2 analogue
        r.add("Akamile", AsKind::Cdn); // Akamai analogue
        r.add("Nimbus-WS", AsKind::Cloud); // Amazon AWS analogue
        r.add("Hetzling", AsKind::Cloud); // Hetzner analogue
        r.add("AppNexoid", AsKind::AdTech); // AppNexus analogue
        r.add("MyLocium", AsKind::Cloud); // MyLoc analogue
        r.add("SoftStratum", AsKind::Cdn); // SoftLayer analogue
        r.add("AOLike", AsKind::Portal); // AOL analogue
        r.add("Criterion-Ads", AsKind::AdTech); // Criteo analogue
        for i in 1..=10 {
            r.add(&format!("HostTail-{i}"), AsKind::Hosting);
        }
        r
    }

    /// Add an AS, returning its id.
    pub fn add(&mut self, name: &str, kind: AsKind) -> AsId {
        let id = AsId(self.ases.len() as u32);
        self.ases.push(AsInfo {
            id,
            name: name.to_string(),
            kind,
        });
        id
    }

    /// Look up an AS.
    pub fn get(&self, id: AsId) -> &AsInfo {
        &self.ases[id.0 as usize]
    }

    /// All ASes.
    pub fn all(&self) -> &[AsInfo] {
        &self.ases
    }

    /// First AS of a kind (the generator gives each special kind at least
    /// one instance).
    pub(crate) fn first_of(&self, kind: AsKind) -> Option<AsId> {
        self.ases.iter().find(|a| a.kind == kind).map(|a| a.id)
    }

    /// All ASes of a kind.
    pub(crate) fn of_kind(&self, kind: AsKind) -> Vec<AsId> {
        self.ases
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| a.id)
            .collect()
    }

    /// Number of registered ASes.
    pub fn len(&self) -> usize {
        self.ases.len()
    }

    /// True when no AS is registered.
    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_all_kinds() {
        let r = AsRegistry::standard();
        for kind in [
            AsKind::SearchGiant,
            AsKind::Cloud,
            AsKind::Cdn,
            AsKind::AdTech,
            AsKind::Hosting,
            AsKind::Portal,
        ] {
            assert!(r.first_of(kind).is_some(), "missing {kind:?}");
        }
        assert!(r.len() >= 10, "need at least the 10 Table-5 players");
    }

    #[test]
    fn ids_are_indices() {
        let r = AsRegistry::standard();
        for (i, a) in r.all().iter().enumerate() {
            assert_eq!(a.id, AsId(i as u32));
            assert_eq!(r.get(a.id).name, a.name);
        }
    }

    #[test]
    fn of_kind_filters() {
        let r = AsRegistry::standard();
        let adtech = r.of_kind(AsKind::AdTech);
        assert_eq!(adtech.len(), 2); // AppNexoid + Criterion-Ads
        for id in adtech {
            assert_eq!(r.get(id).kind, AsKind::AdTech);
        }
    }
}
