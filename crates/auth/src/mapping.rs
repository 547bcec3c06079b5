//! Per-site identity mapping: federated identity → local account.
//!
//! Multi-user endpoints "use the same identity mapping process as used by
//! Globus Connect Server" (§5.1). A task may only ever run as the local
//! account its submitting identity maps to — this is how HPC security
//! invariant (i) is implemented, and the security property tests exercise it.

use crate::error::AuthError;
use crate::identity::Identity;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Mapping rules for one site, evaluated in order:
/// 1. an explicit entry for the full federated username;
/// 2. optionally, a provider-scoped rule deriving `prefix + local_part`.
#[derive(Debug, Clone, Default)]
pub struct IdentityMapping {
    site: String,
    explicit: BTreeMap<String, String>,
    /// (identity provider domain, username prefix) — e.g. ACCESS systems
    /// mapping `alice@access-ci.org` to `x-alice`.
    provider_rules: Vec<(String, String)>,
}

impl IdentityMapping {
    pub fn new(site: &str) -> Self {
        IdentityMapping {
            site: site.to_string(),
            explicit: BTreeMap::new(),
            provider_rules: Vec::new(),
        }
    }

    /// Map one federated username to one local username.
    pub fn add_explicit(&mut self, federated: &str, local: &str) -> &mut Self {
        self.explicit.insert(federated.to_string(), local.to_string());
        self
    }

    /// Accept any identity from `provider_domain`, deriving the local
    /// username as `prefix + local_part`.
    pub fn add_provider_rule(&mut self, provider_domain: &str, prefix: &str) -> &mut Self {
        self.provider_rules
            .push((provider_domain.to_string(), prefix.to_string()));
        self
    }

    /// Resolve the local username for `identity`, or fail closed. An
    /// explicit entry is lent, a provider rule's name is built.
    pub fn resolve(&self, identity: &Identity) -> Result<Cow<'_, str>, AuthError> {
        if let Some(local) = self.explicit.get(&identity.username) {
            return Ok(Cow::Borrowed(local));
        }
        for (domain, prefix) in &self.provider_rules {
            if identity.provider.0 == *domain {
                return Ok(Cow::Owned(format!("{prefix}{}", identity.local_part())));
            }
        }
        Err(AuthError::NoMapping {
            identity: identity.username.clone(),
            site: self.site.clone(),
        })
    }

    pub fn site(&self) -> &str {
        &self.site
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::{IdentityId, IdentityProvider};

    fn identity(username: &str, provider: &str) -> Identity {
        Identity {
            id: IdentityId(1),
            username: username.to_string(),
            provider: IdentityProvider::new(provider),
            last_authentication_us: 0,
        }
    }

    #[test]
    fn explicit_mapping_wins() {
        let mut m = IdentityMapping::new("purdue-anvil");
        m.add_explicit("vhayot@uchicago.edu", "x-vhayot");
        m.add_provider_rule("uchicago.edu", "u-");
        assert_eq!(
            m.resolve(&identity("vhayot@uchicago.edu", "uchicago.edu")).unwrap(),
            "x-vhayot"
        );
    }

    #[test]
    fn provider_rule_derives_username() {
        let mut m = IdentityMapping::new("purdue-anvil");
        m.add_provider_rule("access-ci.org", "x-");
        assert_eq!(
            m.resolve(&identity("mgonthier@access-ci.org", "access-ci.org")).unwrap(),
            "x-mgonthier"
        );
    }

    #[test]
    fn unmapped_identity_fails_closed() {
        let m = IdentityMapping::new("tamu-faster");
        let err = m.resolve(&identity("evil@nowhere.net", "nowhere.net")).unwrap_err();
        assert_eq!(
            err,
            AuthError::NoMapping {
                identity: "evil@nowhere.net".to_string(),
                site: "tamu-faster".to_string(),
            }
        );
    }

    #[test]
    fn wrong_provider_does_not_match_rule() {
        let mut m = IdentityMapping::new("s");
        m.add_provider_rule("access-ci.org", "x-");
        assert!(m.resolve(&identity("alice@gmail.com", "gmail.com")).is_err());
    }
}
