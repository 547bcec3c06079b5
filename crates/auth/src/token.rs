//! Scoped bearer tokens.

use crate::identity::IdentityId;
use hpcci_sim::SimTime;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// An OAuth scope string, e.g. `"compute.api"`. The well-known scopes are
/// constants: naming one allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Scope(pub Cow<'static, str>);

impl Scope {
    /// Scope required to submit tasks to the FaaS service.
    pub const fn compute_api() -> Scope {
        Scope(Cow::Borrowed("compute.api"))
    }

    /// Scope required to manage (register/configure) endpoints.
    pub const fn endpoint_manage() -> Scope {
        Scope(Cow::Borrowed("endpoint.manage"))
    }
}

/// A bearer token: the issue serial that indexes the service's token table,
/// and the value the service compares on presentation — a guessed serial
/// without its `mac` is worthless. Opaque outside this crate and, like
/// [`crate::client::ClientSecret`], never printed.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessToken {
    pub(crate) serial: u64,
    pub(crate) mac: u64,
}

impl fmt::Debug for AccessToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AccessToken(***redacted***)")
    }
}

/// What introspection reveals about a valid token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenInfo {
    pub identity: IdentityId,
    /// Shared with the service's table: introspection clones a handle.
    pub scopes: Arc<[Scope]>,
    pub issued_at: SimTime,
    pub expires_at: SimTime,
}

impl TokenInfo {
    pub fn has_scope(&self, scope: &Scope) -> bool {
        self.scopes.contains(scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_two_words() {
        assert_eq!(std::mem::size_of::<AccessToken>(), 16);
    }

    #[test]
    fn token_debug_is_redacted() {
        let t = AccessToken {
            serial: 0xabc123,
            mac: 0xdef456,
        };
        assert_eq!(format!("{t:?}"), "AccessToken(***redacted***)");
    }

    #[test]
    fn scope_helpers() {
        assert_eq!(Scope::compute_api().0, "compute.api");
        let info = TokenInfo {
            identity: IdentityId(1),
            scopes: [Scope::compute_api()].into(),
            issued_at: SimTime::ZERO,
            expires_at: SimTime::from_secs(3600),
        };
        assert!(info.has_scope(&Scope::compute_api()));
        assert!(!info.has_scope(&Scope::endpoint_manage()));
    }
}
