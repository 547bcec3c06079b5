//! The auth service: registration, client-credentials grant, introspection.

use crate::client::{ClientId, ClientSecret, ConfidentialClient};
use crate::error::AuthError;
use crate::identity::{Identity, IdentityId, IdentityProvider};
use crate::token::{AccessToken, Scope, TokenInfo};
use hpcci_obs::Obs;
use hpcci_sim::{FaultInjector, Fnv, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Default token lifetime (Globus tokens live ~48h; the exact figure is not
/// behaviourally relevant, expiry enforcement is).
const TOKEN_TTL: SimDuration = SimDuration::from_hours(48);

struct IssuedToken {
    mac: u64,
    info: TokenInfo,
    revoked: bool,
}

/// The central OAuth-like service.
#[derive(Default)]
pub struct AuthService {
    /// Shared with the tasks submitted under them; [`Self::refresh_session`]
    /// copies on write, so an in-flight task keeps the identity it was
    /// submitted with.
    identities: BTreeMap<IdentityId, Arc<Identity>>,
    clients: BTreeMap<ClientId, ConfidentialClient>,
    /// Unexpired tokens in issue order: the token with issue serial `s` sits
    /// at `tokens[s - purged]`.
    tokens: VecDeque<IssuedToken>,
    /// Tokens dropped from the front of `tokens` so far.
    purged: u64,
    next_identity: u64,
    next_serial: u64,
    injector: FaultInjector,
    obs: Obs,
}

impl AuthService {
    pub fn new() -> Self {
        AuthService::default()
    }

    /// Attach a fault injector. Token-expiry faults are applied during
    /// introspection; re-authenticating (a fresh token) clears the fault.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// Attach an observability handle.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Register a federated identity and return it.
    pub fn register_identity(&mut self, username: &str, provider: &str, now: SimTime) -> Identity {
        self.next_identity += 1;
        let identity = Identity {
            id: IdentityId(self.next_identity),
            username: username.to_string(),
            provider: IdentityProvider::new(provider),
            last_authentication_us: now.as_micros(),
        };
        self.identities
            .insert(identity.id, Arc::new(identity.clone()));
        identity
    }

    /// Record a fresh interactive login (for session-recency policies).
    pub fn refresh_session(&mut self, id: IdentityId, now: SimTime) -> Result<(), AuthError> {
        let identity = self
            .identities
            .get_mut(&id)
            .ok_or_else(|| AuthError::UnknownIdentity(format!("{id}")))?;
        Arc::make_mut(identity).last_authentication_us = now.as_micros();
        self.obs.inc("auth.token_refreshes");
        Ok(())
    }

    pub fn identity(&self, id: IdentityId) -> Result<&Arc<Identity>, AuthError> {
        self.identities
            .get(&id)
            .ok_or_else(|| AuthError::UnknownIdentity(format!("{id}")))
    }

    /// Create a confidential client owned by `owner`. The returned secret is
    /// shown exactly once — the caller must store it (in a CI secret store).
    pub fn create_client(
        &mut self,
        owner: IdentityId,
        display_name: &str,
    ) -> Result<(ClientId, ClientSecret), AuthError> {
        self.identity(owner)?;
        self.next_serial += 1;
        let id = ClientId(format!("client-{:06}", self.next_serial));
        // A deterministic but unguessable-in-spirit secret.
        let secret = ClientSecret::new(&format!(
            "gcs-{:016x}",
            fnv(format_args!("{}:{}:{}", id.0, owner.0, display_name))
        ));
        self.clients.insert(
            id.clone(),
            ConfidentialClient {
                id: id.clone(),
                secret: secret.clone(),
                owner,
                display_name: display_name.to_string(),
            },
        );
        Ok((id, secret))
    }

    /// OAuth2 client-credentials grant: exchange id+secret for a scoped
    /// bearer token acting as the client's owning identity.
    ///
    /// Each grant first drops the tokens at the front of the table that have
    /// expired by `now`, which bounds the table at issue rate x TTL. A dropped
    /// token answers `InvalidToken` like any unknown one — the deny direction;
    /// that differs from keeping it only for a caller whose clock lags this
    /// grant's by more than the token's remaining life.
    pub fn authenticate(
        &mut self,
        client_id: &ClientId,
        secret: &ClientSecret,
        scopes: Vec<Scope>,
        now: SimTime,
    ) -> Result<AccessToken, AuthError> {
        let client = self
            .clients
            .get(client_id)
            .ok_or(AuthError::InvalidClientCredentials)?;
        if !client.secret.matches(secret) {
            return Err(AuthError::InvalidClientCredentials);
        }
        while self
            .tokens
            .front()
            .is_some_and(|t| t.info.expires_at <= now)
        {
            self.tokens.pop_front();
            self.purged += 1;
        }
        self.next_serial += 1;
        let token = AccessToken {
            serial: self.purged + self.tokens.len() as u64,
            mac: fnv(format_args!(
                "{}:{}:{}",
                client_id.0,
                self.next_serial,
                now.as_micros()
            )),
        };
        self.tokens.push_back(IssuedToken {
            mac: token.mac,
            info: TokenInfo {
                identity: client.owner,
                scopes: scopes.into(),
                issued_at: now,
                expires_at: now + TOKEN_TTL,
            },
            revoked: false,
        });
        self.obs.inc("auth.tokens_issued");
        Ok(token)
    }

    /// The table slot of a token this service issued and still holds. A
    /// token from another service, a guessed serial or a purged token fails
    /// the range check or the `mac` compare.
    fn slot(&self, token: &AccessToken) -> Result<usize, AuthError> {
        token
            .serial
            .checked_sub(self.purged)
            .and_then(|i| usize::try_from(i).ok())
            .filter(|&i| self.tokens.get(i).is_some_and(|t| t.mac == token.mac))
            .ok_or(AuthError::InvalidToken)
    }

    /// Validate a token and reveal its claims.
    pub fn introspect(&self, token: &AccessToken, now: SimTime) -> Result<TokenInfo, AuthError> {
        let issued = &self.tokens[self.slot(token)?];
        if issued.revoked || now >= issued.info.expires_at {
            return Err(AuthError::InvalidToken);
        }
        // Injected early expiry: this token is dead until the caller
        // re-authenticates for a fresh one.
        if self.injector.token_expired(token.mac, now) {
            return Err(AuthError::InvalidToken);
        }
        Ok(issued.info.clone())
    }

    /// Validate a token *and* require a scope — the common service check.
    pub fn require_scope(
        &self,
        token: &AccessToken,
        scope: &Scope,
        now: SimTime,
    ) -> Result<TokenInfo, AuthError> {
        let info = self.introspect(token, now)?;
        if !info.has_scope(scope) {
            return Err(AuthError::MissingScope(scope.0.to_string()));
        }
        Ok(info)
    }

    /// Revoke a token immediately. A token the table has already purged is
    /// `InvalidToken` here too: it was dead either way.
    pub fn revoke(&mut self, token: &AccessToken) -> Result<(), AuthError> {
        let slot = self.slot(token)?;
        self.tokens[slot].revoked = true;
        Ok(())
    }
}

/// FNV-1a of the formatted text, hashed as it is written: no `String`.
fn fnv(text: fmt::Arguments<'_>) -> u64 {
    let mut h = Fnv::default();
    h.write_fmt(text).expect("the hash sink never fails");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AuthService, IdentityId, ClientId, ClientSecret) {
        let mut svc = AuthService::new();
        let identity = svc.register_identity("vhayot@uchicago.edu", "uchicago.edu", SimTime::ZERO);
        let (cid, secret) = svc.create_client(identity.id, "correct-ci").unwrap();
        (svc, identity.id, cid, secret)
    }

    #[test]
    fn client_credentials_grant_succeeds() {
        let (mut svc, owner, cid, secret) = setup();
        let token = svc
            .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
            .unwrap();
        let info = svc.introspect(&token, SimTime::from_secs(60)).unwrap();
        assert_eq!(info.identity, owner);
        assert!(info.has_scope(&Scope::compute_api()));
    }

    #[test]
    fn wrong_secret_rejected_without_detail() {
        let (mut svc, _, cid, _) = setup();
        let err = svc
            .authenticate(
                &cid,
                &ClientSecret::new("wrong"),
                vec![Scope::compute_api()],
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, AuthError::InvalidClientCredentials);
        // Unknown client yields the indistinguishable error.
        let err2 = svc
            .authenticate(
                &ClientId("client-999999".to_string()),
                &ClientSecret::new("x"),
                vec![],
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn tokens_expire() {
        let (mut svc, _, cid, secret) = setup();
        let token = svc.authenticate(&cid, &secret, vec![], SimTime::ZERO).unwrap();
        assert!(svc.introspect(&token, SimTime::from_hours_48_minus_1()).is_ok());
        assert_eq!(
            svc.introspect(&token, SimTime::from_secs(48 * 3600)).unwrap_err(),
            AuthError::InvalidToken
        );
    }

    // Helper for readability above.
    trait Almost {
        fn from_hours_48_minus_1() -> SimTime;
    }
    impl Almost for SimTime {
        fn from_hours_48_minus_1() -> SimTime {
            SimTime::from_secs(48 * 3600 - 1)
        }
    }

    #[test]
    fn revocation_invalidates_immediately() {
        let (mut svc, _, cid, secret) = setup();
        let token = svc.authenticate(&cid, &secret, vec![], SimTime::ZERO).unwrap();
        svc.revoke(&token).unwrap();
        assert_eq!(
            svc.introspect(&token, SimTime::from_secs(1)).unwrap_err(),
            AuthError::InvalidToken
        );
    }

    #[test]
    fn scope_enforcement() {
        let (mut svc, _, cid, secret) = setup();
        let token = svc
            .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
            .unwrap();
        assert!(svc
            .require_scope(&token, &Scope::compute_api(), SimTime::from_secs(1))
            .is_ok());
        assert_eq!(
            svc.require_scope(&token, &Scope::endpoint_manage(), SimTime::from_secs(1))
                .unwrap_err(),
            AuthError::MissingScope("endpoint.manage".to_string())
        );
    }

    #[test]
    fn distinct_tokens_per_grant() {
        let (mut svc, _, cid, secret) = setup();
        let t1 = svc.authenticate(&cid, &secret, vec![], SimTime::ZERO).unwrap();
        let t2 = svc.authenticate(&cid, &secret, vec![], SimTime::ZERO).unwrap();
        assert_ne!(t1, t2);
    }

    #[test]
    fn session_refresh_updates_identity() {
        let (mut svc, owner, _, _) = setup();
        svc.refresh_session(owner, SimTime::from_secs(100)).unwrap();
        assert_eq!(
            svc.identity(owner).unwrap().last_authentication_us,
            SimTime::from_secs(100).as_micros()
        );
        assert!(svc.refresh_session(IdentityId(999), SimTime::ZERO).is_err());
    }

    /// The token store this table replaced — a map from the printed token to
    /// its claims that never forgets — kept here as the oracle only.
    #[derive(Default)]
    struct StringKeyed {
        owners: BTreeMap<ClientId, (ClientSecret, IdentityId)>,
        tokens: BTreeMap<String, (TokenInfo, bool)>,
    }

    impl StringKeyed {
        fn authenticate(
            &mut self,
            cid: &ClientId,
            secret: &ClientSecret,
            scopes: Vec<Scope>,
            serial: u64,
            now: SimTime,
        ) -> Result<String, AuthError> {
            let (known, owner) = self
                .owners
                .get(cid)
                .ok_or(AuthError::InvalidClientCredentials)?;
            if !known.matches(secret) {
                return Err(AuthError::InvalidClientCredentials);
            }
            let raw = format!(
                "tok-{:016x}",
                fnv(format_args!("{}:{serial}:{}", cid.0, now.as_micros()))
            );
            let info = TokenInfo {
                identity: *owner,
                scopes: scopes.into(),
                issued_at: now,
                expires_at: now + TOKEN_TTL,
            };
            self.tokens.insert(raw.clone(), (info, false));
            Ok(raw)
        }

        fn introspect(&self, raw: &str, now: SimTime) -> Result<TokenInfo, AuthError> {
            match self.tokens.get(raw) {
                Some((info, revoked)) if !revoked && now < info.expires_at => Ok(info.clone()),
                _ => Err(AuthError::InvalidToken),
            }
        }

        fn require_scope(
            &self,
            raw: &str,
            scope: &Scope,
            now: SimTime,
        ) -> Result<TokenInfo, AuthError> {
            let info = self.introspect(raw, now)?;
            if !info.has_scope(scope) {
                return Err(AuthError::MissingScope(scope.0.to_string()));
            }
            Ok(info)
        }

        fn revoke(&mut self, raw: &str) -> Result<(), AuthError> {
            self.tokens.get_mut(raw).ok_or(AuthError::InvalidToken)?.1 = true;
            Ok(())
        }
    }

    #[test]
    fn serial_indexed_table_answers_like_the_string_keyed_map() {
        use hpcci_sim::DetRng;
        let scopes = [
            Scope::compute_api(),
            Scope::endpoint_manage(),
            Scope("transfer.api".into()),
        ];
        let (mut grants, mut purged_seen, mut denied) = (0, 0, 0);
        for seed in 0..24 {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut svc = AuthService::new();
            let mut oracle = StringKeyed::default();
            let mut clients = Vec::new();
            for user in 0..3 {
                let id = svc
                    .register_identity(&format!("u{user}@sim"), "sim", SimTime::ZERO)
                    .id;
                let (cid, secret) = svc.create_client(id, "correct").unwrap();
                oracle.owners.insert(cid.clone(), (secret.clone(), id));
                clients.push((cid, secret));
            }
            clients.push((ClientId("client-999999".into()), ClientSecret::new("x")));
            clients.push((clients[0].0.clone(), ClientSecret::new("wrong")));
            // A token neither store ever issued rides along with the real ones.
            let mut tokens = vec![(
                AccessToken { serial: 1, mac: 7 },
                "tok-0000000000000007".to_string(),
            )];
            let mut now = SimTime::ZERO;
            for _ in 0..400 {
                // Monotone clock; steps of up to 12 h carry tokens past the TTL.
                now += SimDuration::from_secs(rng.range_u64(0, 12 * 3600));
                let pick = rng.range_u64(0, tokens.len() as u64) as usize;
                let scope = &scopes[rng.range_u64(0, 3) as usize];
                match rng.range_u64(0, 8) {
                    0..=2 => {
                        let (cid, secret) =
                            &clients[rng.range_u64(0, clients.len() as u64) as usize];
                        let asked: Vec<Scope> =
                            scopes.iter().filter(|_| rng.chance(0.5)).cloned().collect();
                        let serial = svc.next_serial + 1;
                        let new = svc.authenticate(cid, secret, asked.clone(), now);
                        let old = oracle.authenticate(cid, secret, asked, serial, now);
                        assert_eq!(new.is_ok(), old.is_ok());
                        match (new, old) {
                            (Ok(token), Ok(raw)) => tokens.push((token, raw)),
                            (new, old) => assert_eq!(new.err(), old.err()),
                        }
                        grants += 1;
                    }
                    3..=4 => {
                        let (token, raw) = &tokens[pick];
                        let answer = svc.introspect(token, now);
                        assert_eq!(answer, oracle.introspect(raw, now));
                        denied += usize::from(answer.is_err());
                    }
                    5..=6 => {
                        let (token, raw) = &tokens[pick];
                        assert_eq!(
                            svc.require_scope(token, scope, now),
                            oracle.require_scope(raw, scope, now)
                        );
                    }
                    _ => {
                        // The one difference: revoking a token the table has
                        // already dropped is `InvalidToken`, where the map,
                        // which kept it, said `Ok`. Either way it stays dead.
                        let (token, raw) = &tokens[pick];
                        let old = oracle.revoke(raw);
                        if pick > 0 && token.serial < svc.purged {
                            assert_eq!(svc.revoke(token), Err(AuthError::InvalidToken));
                            assert!(old.is_ok() && oracle.introspect(raw, now).is_err());
                            purged_seen += 1;
                        } else {
                            assert_eq!(svc.revoke(token), old);
                        }
                    }
                }
            }
        }
        assert!(
            grants > 2_000 && purged_seen > 100 && denied > 500,
            "{grants} {purged_seen} {denied}"
        );
    }

    #[test]
    fn a_token_is_worthless_at_another_service_or_with_a_guessed_mac() {
        let (mut a, _, cid, secret) = setup();
        let mut b = AuthService::new();
        let other = b.register_identity("other@uchicago.edu", "uchicago.edu", SimTime::ZERO);
        // B's history differs from A's by one client, so its client ids do.
        b.create_client(other.id, "unused").unwrap();
        let (b_cid, b_secret) = b.create_client(other.id, "other-ci").unwrap();
        let at = SimTime::from_secs(1);
        let from_a = a
            .authenticate(&cid, &secret, vec![Scope::compute_api()], at)
            .unwrap();
        let from_b = b
            .authenticate(&b_cid, &b_secret, vec![Scope::compute_api()], at)
            .unwrap();
        // Same serial at both services: only the compare tells them apart.
        assert_eq!(from_a.serial, from_b.serial);
        assert!(a.introspect(&from_a, at).is_ok() && b.introspect(&from_b, at).is_ok());
        assert_eq!(b.introspect(&from_a, at), Err(AuthError::InvalidToken));
        assert_eq!(
            a.require_scope(&from_b, &Scope::compute_api(), at),
            Err(AuthError::InvalidToken)
        );
        assert_eq!(b.revoke(&from_a), Err(AuthError::InvalidToken));
        assert!(
            b.introspect(&from_b, at).is_ok(),
            "a foreign revoke touched nothing"
        );

        let guessed = AccessToken {
            serial: from_a.serial,
            mac: from_a.mac ^ 1,
        };
        assert_eq!(a.introspect(&guessed, at), Err(AuthError::InvalidToken));
        let unissued = AccessToken {
            serial: from_a.serial + 1,
            mac: from_a.mac,
        };
        assert_eq!(a.introspect(&unissued, at), Err(AuthError::InvalidToken));
    }

    #[test]
    fn live_tokens_plateau_at_rate_times_ttl() {
        // Ten times `fleet_push`'s twelve grants a minute, for thirty days.
        const PER_SEC: u64 = 2;
        let plateau = (PER_SEC * TOKEN_TTL.as_micros() / 1_000_000) as usize;
        let (mut svc, _, cid, secret) = setup();
        let grant = |svc: &mut AuthService, tick: u64| {
            let now = SimTime::from_micros(tick * 1_000_000 / PER_SEC);
            svc.authenticate(&cid, &secret, Vec::new(), now).unwrap()
        };
        let first = grant(&mut svc, 0);
        let revoked = grant(&mut svc, 1);
        svc.revoke(&revoked).unwrap();
        let mut live_on_day = Vec::new();
        for tick in 2..30 * 86_400 * PER_SEC {
            grant(&mut svc, tick);
            if tick % (86_400 * PER_SEC) == 0 {
                live_on_day.push(svc.tokens.len());
            }
        }
        assert_eq!(live_on_day.len(), 29);
        assert!(
            live_on_day[0] < plateau,
            "a day in, the table is still filling"
        );
        assert!(
            live_on_day[1..].iter().all(|&n| n == plateau),
            "{live_on_day:?} vs {plateau}"
        );
        // Purged is unknown — even to a caller whose clock never moved, the
        // one case the never-forgetting map answered differently.
        for token in [&first, &revoked] {
            assert_eq!(
                svc.introspect(token, SimTime::ZERO),
                Err(AuthError::InvalidToken)
            );
            assert_eq!(svc.revoke(token), Err(AuthError::InvalidToken));
        }
    }

    #[test]
    fn tokens_minted_at_one_instant_are_all_valid_at_that_instant() {
        let (mut svc, owner, cid, secret) = setup();
        let at = SimTime::from_secs(5);
        let tokens: Vec<AccessToken> = (0..100_000)
            .map(|_| {
                svc.authenticate(&cid, &secret, vec![Scope::compute_api()], at)
                    .unwrap()
            })
            .collect();
        assert_eq!(svc.tokens.len(), tokens.len());
        assert!(tokens.iter().all(|t| svc
            .introspect(t, at)
            .is_ok_and(|info| info.identity == owner)));
    }
}
