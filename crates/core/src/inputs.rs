//! The CORRECT action's input schema (Fig. 3).
//!
//! ```yaml
//! - name: Run tox
//!   id: tox
//!   uses: globus-labs/correct@v1
//!   with:
//!     client_id: ${{ secrets.GLOBUS_ID }}
//!     client_secret: ${{ secrets.GLOBUS_SECRET }}
//!     endpoint_uuid: ${{ env.ENDPOINT_UUID }}
//!     shell_cmd: 'tox'
//! ```

use hpcci_auth::{ClientId, ClientSecret};
use hpcci_faas::{EndpointId, FunctionId};
use std::collections::BTreeMap;

/// What the step runs at the site: `shell_cmd` with `args` appended, or a
/// pre-registered `function_uuid` and its `args`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Shell(String),
    Function(FunctionId, String),
}

/// Parsed, validated action inputs, in the types the step submits with: a
/// step keeps them for its whole session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectInputs {
    pub client_id: ClientId,
    pub client_secret: ClientSecret,
    /// `endpoint_uuid`, then the `fallback_endpoints` (comma-separated in
    /// the `with:` map) a crashed endpoint fails over to, in priority order.
    pub endpoints: Vec<EndpointId>,
    /// Exactly one of `shell_cmd` / `function_uuid` is set.
    pub command: Command,
    /// When true, CORRECT runs a secondary capture task and attaches the
    /// site's software-environment description as an artifact (§7.4).
    pub capture_environment: bool,
    /// Skip the remote clone step (for commands that do not need repository
    /// contents, e.g. environment probes).
    pub skip_clone: bool,
    /// Bounded retries for *infrastructure* failures (crashed endpoint,
    /// failed UEP fork, expired token). Test failures are never retried.
    pub max_retries: u32,
    /// Base of the exponential backoff between retries, in seconds.
    pub retry_backoff_secs: u64,
}

impl CorrectInputs {
    /// Parse from a step's `with:` map. Returns a user-facing error message
    /// on schema violations.
    pub fn parse(with: &BTreeMap<String, String>) -> Result<CorrectInputs, String> {
        let req = |key: &str| -> Result<&str, String> {
            match with.get(key) {
                Some(v) if !v.is_empty() => Ok(v.as_str()),
                _ => Err(format!("correct-action: missing required input `{key}`")),
            }
        };
        let client_id = req("client_id")?;
        let client_secret = req("client_secret")?;
        let endpoint_uuid = req("endpoint_uuid")?;
        let shell_cmd = with.get("shell_cmd").filter(|v| !v.is_empty());
        let function_uuid = match with.get("function_uuid").filter(|v| !v.is_empty()) {
            Some(raw) => Some(
                raw.trim_start_matches("fn-")
                    .parse::<u64>()
                    .or_else(|_| u64::from_str_radix(raw.trim_start_matches("fn-"), 16))
                    .map_err(|_| format!("correct-action: invalid function_uuid `{raw}`"))?,
            ),
            None => None,
        };
        let args = with.get("args").map_or("", String::as_str);
        let command = match (shell_cmd, function_uuid) {
            (None, None) => {
                return Err("correct-action: one of `shell_cmd` or `function_uuid` is required".into())
            }
            (Some(_), Some(_)) => {
                return Err("correct-action: `shell_cmd` and `function_uuid` are mutually exclusive".into())
            }
            (Some(cmd), None) if args.is_empty() => Command::Shell(cmd.clone()),
            (Some(cmd), None) => Command::Shell(format!("{cmd} {args}")),
            (None, Some(fid)) => Command::Function(FunctionId(fid), args.to_string()),
        };
        let truthy = |key: &str| {
            with.get(key)
                .map(|v| v == "true" || v == "1" || v == "yes")
                .unwrap_or(false)
        };
        // A value above `max` is as invalid as one that does not parse:
        // retries are counted in a `u32`, and the backoff's microseconds must
        // fit the simulated clock.
        let uint = |key: &str, default: u64, max: u64| -> Result<u64, String> {
            match with.get(key).filter(|v| !v.is_empty()) {
                Some(raw) => (raw.parse::<u64>().ok())
                    .filter(|&v| v <= max)
                    .ok_or_else(|| format!("correct-action: invalid `{key}` value `{raw}`")),
                None => Ok(default),
            }
        };
        let max_retries = uint("max_retries", 2, u32::MAX.into())? as u32;
        let retry_backoff_secs = uint("retry_backoff_secs", 5, u64::MAX / 1_000_000)?;
        let fallbacks = with.get("fallback_endpoints").map_or("", String::as_str);
        let endpoints = std::iter::once(endpoint_uuid)
            .chain(fallbacks.split(',').map(str::trim))
            .filter(|e| !e.is_empty())
            .map(|e| EndpointId(e.to_string()))
            .collect();
        Ok(CorrectInputs {
            client_id: ClientId(client_id.to_string()),
            client_secret: ClientSecret::new(client_secret),
            endpoints,
            command,
            capture_environment: truthy("capture_environment"),
            skip_clone: truthy("skip_clone"),
            max_retries,
            retry_backoff_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> BTreeMap<String, String> {
        [
            ("client_id", "client-000001"),
            ("client_secret", "gcs-abc"),
            ("endpoint_uuid", "ep-anvil"),
            ("shell_cmd", "tox"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    }

    #[test]
    fn parses_fig3_form() {
        let with = base();
        let inputs = CorrectInputs::parse(&with).unwrap();
        assert_eq!(inputs.command, Command::Shell("tox".into()));
        assert_eq!(inputs.endpoints, [EndpointId("ep-anvil".into())]);
        assert!(!inputs.capture_environment);
    }

    #[test]
    fn missing_required_inputs_error() {
        for key in ["client_id", "client_secret", "endpoint_uuid"] {
            let mut m = base();
            m.remove(key);
            let err = CorrectInputs::parse(&m).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }

    #[test]
    fn shell_and_function_are_exclusive() {
        let mut m = base();
        m.insert("function_uuid".into(), "42".into());
        assert!(CorrectInputs::parse(&m).unwrap_err().contains("mutually exclusive"));
        m.remove("shell_cmd");
        let inputs = CorrectInputs::parse(&m).unwrap();
        assert_eq!(
            inputs.command,
            Command::Function(FunctionId(42), String::new())
        );
        m.remove("function_uuid");
        assert!(CorrectInputs::parse(&m).unwrap_err().contains("required"));
    }

    #[test]
    fn function_uuid_accepts_display_form() {
        let mut m = base();
        m.remove("shell_cmd");
        // `FunctionId` displays as fn-<hex>.
        m.insert("function_uuid".into(), "fn-0000002a".into());
        m.insert("args".into(), "--fast".into());
        let inputs = CorrectInputs::parse(&m).unwrap();
        assert_eq!(
            inputs.command,
            Command::Function(FunctionId(42), "--fast".into())
        );
    }

    #[test]
    fn flags_parse() {
        let mut m = base();
        m.insert("capture_environment".into(), "true".into());
        m.insert("skip_clone".into(), "yes".into());
        m.insert("args".into(), "-e py312".into());
        let inputs = CorrectInputs::parse(&m).unwrap();
        assert!(inputs.capture_environment);
        assert!(inputs.skip_clone);
        assert_eq!(inputs.command, Command::Shell("tox -e py312".into()));
    }

    #[test]
    fn resilience_inputs_default_and_parse() {
        let with = base();
        let inputs = CorrectInputs::parse(&with).unwrap();
        assert_eq!(inputs.max_retries, 2);
        assert_eq!(inputs.retry_backoff_secs, 5);
        assert_eq!(inputs.endpoints.len(), 1);

        let mut m = base();
        m.insert("max_retries".into(), "4".into());
        m.insert("retry_backoff_secs".into(), "1".into());
        m.insert("fallback_endpoints".into(), "ep-b, ep-c".into());
        let inputs = CorrectInputs::parse(&m).unwrap();
        assert_eq!(inputs.max_retries, 4);
        assert_eq!(inputs.retry_backoff_secs, 1);
        let ep = |e: &str| EndpointId(e.into());
        assert_eq!(inputs.endpoints, [ep("ep-anvil"), ep("ep-b"), ep("ep-c")]);

        m.insert("max_retries".into(), "lots".into());
        assert!(CorrectInputs::parse(&m).unwrap_err().contains("max_retries"));
    }

    #[test]
    fn max_retries_beyond_u32_is_refused_not_truncated() {
        let mut m = base();
        m.insert("max_retries".into(), "4294967297".into());
        assert_eq!(
            CorrectInputs::parse(&m).unwrap_err(),
            "correct-action: invalid `max_retries` value `4294967297`"
        );
        m.insert("max_retries".into(), "4294967295".into());
        assert_eq!(CorrectInputs::parse(&m).unwrap().max_retries, u32::MAX);
    }

    #[test]
    fn a_backoff_beyond_the_simulated_clock_is_refused() {
        let mut m = base();
        m.insert("retry_backoff_secs".into(), u64::MAX.to_string());
        assert_eq!(
            CorrectInputs::parse(&m).unwrap_err(),
            "correct-action: invalid `retry_backoff_secs` value `18446744073709551615`"
        );
        let most = u64::MAX / 1_000_000;
        m.insert("retry_backoff_secs".into(), most.to_string());
        assert_eq!(CorrectInputs::parse(&m).unwrap().retry_backoff_secs, most);
    }

    #[test]
    fn empty_string_counts_as_missing() {
        let mut m = base();
        m.insert("client_secret".into(), String::new());
        assert!(CorrectInputs::parse(&m).is_err());
    }
}
