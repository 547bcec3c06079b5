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

use std::collections::BTreeMap;

/// Parsed, validated action inputs, borrowed from the step's `with:` map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectInputs<'a> {
    pub client_id: &'a str,
    pub client_secret: &'a str,
    pub endpoint_uuid: &'a str,
    /// Exactly one of `shell_cmd` / `function_uuid` is set.
    pub shell_cmd: Option<&'a str>,
    pub function_uuid: Option<u64>,
    /// Args passed to the function (`function_uuid` form) or appended to the
    /// shell command.
    pub args: &'a str,
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
    /// Sibling endpoints to fail over to when the primary endpoint crashes
    /// (comma-separated in the `with:` map).
    pub fallback_endpoints: Vec<&'a str>,
}

impl<'a> CorrectInputs<'a> {
    /// Parse from a step's `with:` map. Returns a user-facing error message
    /// on schema violations.
    pub fn parse(with: &'a BTreeMap<String, String>) -> Result<CorrectInputs<'a>, String> {
        let req = |key: &str| -> Result<&'a str, String> {
            match with.get(key) {
                Some(v) if !v.is_empty() => Ok(v.as_str()),
                _ => Err(format!("correct-action: missing required input `{key}`")),
            }
        };
        let client_id = req("client_id")?;
        let client_secret = req("client_secret")?;
        let endpoint_uuid = req("endpoint_uuid")?;
        let shell_cmd = with
            .get("shell_cmd")
            .filter(|v| !v.is_empty())
            .map(String::as_str);
        let function_uuid = match with.get("function_uuid").filter(|v| !v.is_empty()) {
            Some(raw) => Some(
                raw.trim_start_matches("fn-")
                    .parse::<u64>()
                    .or_else(|_| u64::from_str_radix(raw.trim_start_matches("fn-"), 16))
                    .map_err(|_| format!("correct-action: invalid function_uuid `{raw}`"))?,
            ),
            None => None,
        };
        match (&shell_cmd, &function_uuid) {
            (None, None) => {
                return Err("correct-action: one of `shell_cmd` or `function_uuid` is required".into())
            }
            (Some(_), Some(_)) => {
                return Err("correct-action: `shell_cmd` and `function_uuid` are mutually exclusive".into())
            }
            _ => {}
        }
        let truthy = |key: &str| {
            with.get(key)
                .map(|v| v == "true" || v == "1" || v == "yes")
                .unwrap_or(false)
        };
        let uint = |key: &str, default: u64| -> Result<u64, String> {
            match with.get(key).filter(|v| !v.is_empty()) {
                Some(raw) => raw
                    .parse::<u64>()
                    .map_err(|_| format!("correct-action: invalid `{key}` value `{raw}`")),
                None => Ok(default),
            }
        };
        let max_retries = uint("max_retries", 2)? as u32;
        let retry_backoff_secs = uint("retry_backoff_secs", 5)?;
        let fallback_endpoints = with
            .get("fallback_endpoints")
            .map(|v| {
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default();
        Ok(CorrectInputs {
            client_id,
            client_secret,
            endpoint_uuid,
            shell_cmd,
            function_uuid,
            args: with.get("args").map_or("", String::as_str),
            capture_environment: truthy("capture_environment"),
            skip_clone: truthy("skip_clone"),
            max_retries,
            retry_backoff_secs,
            fallback_endpoints,
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
        assert_eq!(inputs.shell_cmd, Some("tox"));
        assert_eq!(inputs.endpoint_uuid, "ep-anvil");
        assert!(!inputs.capture_environment);
        assert!(inputs.function_uuid.is_none());
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
        assert_eq!(inputs.function_uuid, Some(42));
        m.remove("function_uuid");
        assert!(CorrectInputs::parse(&m).unwrap_err().contains("required"));
    }

    #[test]
    fn function_uuid_accepts_display_form() {
        let mut m = base();
        m.remove("shell_cmd");
        // `FunctionId` displays as fn-<hex>.
        m.insert("function_uuid".into(), "fn-0000002a".into());
        let inputs = CorrectInputs::parse(&m).unwrap();
        assert_eq!(inputs.function_uuid, Some(42));
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
        assert_eq!(inputs.args, "-e py312");
    }

    #[test]
    fn resilience_inputs_default_and_parse() {
        let with = base();
        let inputs = CorrectInputs::parse(&with).unwrap();
        assert_eq!(inputs.max_retries, 2);
        assert_eq!(inputs.retry_backoff_secs, 5);
        assert!(inputs.fallback_endpoints.is_empty());

        let mut m = base();
        m.insert("max_retries".into(), "4".into());
        m.insert("retry_backoff_secs".into(), "1".into());
        m.insert("fallback_endpoints".into(), "ep-b, ep-c".into());
        let inputs = CorrectInputs::parse(&m).unwrap();
        assert_eq!(inputs.max_retries, 4);
        assert_eq!(inputs.retry_backoff_secs, 1);
        assert_eq!(inputs.fallback_endpoints, vec!["ep-b", "ep-c"]);

        m.insert("max_retries".into(), "lots".into());
        assert!(CorrectInputs::parse(&m).unwrap_err().contains("max_retries"));
    }

    #[test]
    fn empty_string_counts_as_missing() {
        let mut m = base();
        m.insert("client_secret".into(), String::new());
        assert!(CorrectInputs::parse(&m).is_err());
    }
}
