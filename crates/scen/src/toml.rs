//! A deliberately small TOML dialect — just enough surface for scenario
//! specs, hand-rolled because the workspace builds fully offline (no
//! serde/toml crates; see the workspace manifest).
//!
//! Supported syntax:
//!
//! * one level of tables: `[table]` and `[[array]]` headers; a dotted
//!   `[a.b]` name and a table defined twice are refused
//! * `key = "string"` (with `\"`, `\\`, `\n`, `\t` escapes)
//! * `key = 123` — **unsigned** integers only; the spec layer stores every
//!   tunable as an integer precisely so round-trips are byte-exact (floats
//!   have no canonical rendering)
//! * `key = true` / `false`
//! * `key = ["a", "b"]` / `key = [1, 2]` — single-line homogeneous arrays
//! * `# comments` and blank lines
//!
//! A parsed [`Table`] is read only through [`Reader::read`], which names
//! the table in every error, refuses a key whose value has the wrong type,
//! and then refuses every key its caller did not read.
//!
//! There is no serializer here: canonical scenario text is produced by
//! [`crate::spec::ScenarioSpec::to_toml`], which writes keys in a fixed
//! order. `parse` + [`Reader`] are the only direction this module owns.

use crate::spec::SpecError;
use std::fmt::Display;

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    Int(u64),
    Bool(bool),
    Array(Vec<Value>),
}

/// Table entry: a terminal value, a `[name]` table, or one `[[name]]`
/// entry (the entries of one array share its name).
#[derive(Debug)]
enum Item {
    Value(Value),
    Table(Table),
    Entry(Table),
}

/// An insertion-ordered table. Order is preserved so error messages match
/// the source document.
#[derive(Debug, Default)]
pub struct Table {
    entries: Vec<(String, Item)>,
}

/// Parse error with a 1-based line number into the source document.
#[derive(Clone, Debug, PartialEq)]
pub struct TomlError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TOML parse error at line {}: {}", self.line, self.msg)
    }
}

/// A value type a [`Reader`] reads; `Err` says what the value is not.
pub trait FromValue: Sized {
    fn from_value(value: &Value) -> Result<Self, String>;
}

impl FromValue for String {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err("is not a string".into()),
        }
    }
}

impl FromValue for u64 {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Int(n) => Ok(*n),
            _ => Err("is not an integer".into()),
        }
    }
}

impl FromValue for u32 {
    fn from_value(value: &Value) -> Result<Self, String> {
        let n = u64::from_value(value)?;
        u32::try_from(n).map_err(|_| format!("overflows u32 ({n})"))
    }
}

impl FromValue for bool {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err("is not a boolean".into()),
        }
    }
}

impl<T: FromValue> FromValue for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Array(items) => items
                .iter()
                .map(T::from_value)
                .collect::<Result<_, _>>()
                .map_err(|m| format!("has an element that {m}")),
            _ => Err("is not an array".into()),
        }
    }
}

/// Reads one table: every error names it (`[workload]`, `[[sites]] #2`).
/// The only way in is [`Reader::read`], which refuses what was left unread.
pub struct Reader<'a> {
    name: String,
    entries: &'a [(String, Item)],
    read: Vec<bool>,
}

impl<'a> Reader<'a> {
    /// Read `table`, called `name` in errors, with `f`; then refuse the
    /// first key `f` did not read.
    pub fn read<T>(
        table: &'a Table,
        name: String,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        let entries = &table.entries[..];
        let mut r = Reader {
            name,
            entries,
            read: vec![false; entries.len()],
        };
        let out = f(&mut r)?;
        match entries.iter().zip(&r.read).find(|(_, read)| !**read) {
            Some(((key, _), _)) => Err(r.err(format!("unknown key `{key}`"))),
            None => Ok(out),
        }
    }

    /// An error about this table.
    pub fn err(&self, msg: impl Display) -> SpecError {
        SpecError(format!("{}: {msg}", self.name))
    }

    /// Mark `key` read and return its item, if present.
    fn take(&mut self, key: &str) -> Option<&'a Item> {
        let ix = self.entries.iter().position(|(k, _)| k == key)?;
        self.read[ix] = true;
        Some(&self.entries[ix].1)
    }

    /// The value of `key`, if present; present with the wrong type is an error.
    pub fn opt<T: FromValue>(&mut self, key: &str) -> Result<Option<T>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Item::Value(v)) => T::from_value(v)
                .map(Some)
                .map_err(|m| self.err(format!("key `{key}` {m}"))),
            Some(_) => Err(self.err(format!("key `{key}` is a table, not a value"))),
        }
    }

    pub fn req<T: FromValue>(&mut self, key: &str) -> Result<T, SpecError> {
        self.opt(key)?
            .ok_or_else(|| self.err(format!("missing key `{key}`")))
    }

    /// Read the `[key]` table with `f`, if present.
    pub fn opt_table<T>(
        &mut self,
        key: &str,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, SpecError>,
    ) -> Result<Option<T>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Item::Table(t)) => Reader::read(t, format!("[{key}]"), f).map(Some),
            Some(_) => Err(self.err(format!("`{key}` is not a `[{key}]` table"))),
        }
    }

    pub fn table<T>(
        &mut self,
        key: &str,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        self.opt_table(key, f)?
            .ok_or_else(|| self.err(format!("missing table `[{key}]`")))
    }

    /// Read every `[[key]]` entry with `f`, in document order.
    pub fn tables<T>(
        &mut self,
        key: &str,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<T, SpecError>,
    ) -> Result<Vec<T>, SpecError> {
        let mut out = Vec::new();
        let entries = self.entries.iter().enumerate();
        for (ix, (_, item)) in entries.filter(|(_, (k, _))| k == key) {
            self.read[ix] = true;
            match item {
                Item::Entry(t) => out.push(Reader::read(
                    t,
                    format!("[[{key}]] #{}", out.len()),
                    &mut f,
                )?),
                _ => return Err(self.err(format!("`{key}` is not a `[[{key}]]` array"))),
            }
        }
        Ok(out)
    }
}

/// Parse a full document into its root table.
pub fn parse(text: &str) -> Result<Table, TomlError> {
    let mut root = Table::default();
    for (ix, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| TomlError { line: ix + 1, msg };

        if let Some(header) = line.strip_prefix('[') {
            let (name, array) = match header.strip_prefix('[') {
                Some(inner) => (inner.strip_suffix("]]"), true),
                None => (header.strip_suffix(']'), false),
            };
            let name = name
                .ok_or_else(|| err("unterminated table header".into()))?
                .trim();
            if !is_bare_key(name) {
                return Err(err(format!("invalid table name `{name}`")));
            }
            // Only the entries of one `[[name]]` array share a name.
            let taken = root
                .entries
                .iter()
                .any(|(k, item)| k == name && !(array && matches!(item, Item::Entry(_))));
            if taken {
                return Err(err(format!("table `{name}` defined twice")));
            }
            let item: fn(Table) -> Item = if array { Item::Entry } else { Item::Table };
            root.entries
                .push((name.to_string(), item(Table::default())));
        } else {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key = value`, got `{line}`")))?;
            let key = key.trim();
            if !is_bare_key(key) {
                return Err(err(format!("invalid key `{key}`")));
            }
            let value = parse_value(value.trim()).map_err(&err)?;
            // A key fills the table the last header opened, the root before any.
            let table = match root.entries.last_mut() {
                Some((_, Item::Table(t) | Item::Entry(t))) => t,
                _ => &mut root,
            };
            if table.entries.iter().any(|(k, _)| k == key) {
                return Err(err(format!("duplicate key `{key}`")));
            }
            table.entries.push((key.to_string(), Item::Value(value)));
        }
    }
    Ok(root)
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, ch) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match ch {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_value(text: &str) -> Result<Value, String> {
    if text.starts_with('"') {
        let (s, rest) = parse_string(text)?;
        if !rest.trim().is_empty() {
            return Err(format!("trailing garbage after string: `{rest}`"));
        }
        Ok(Value::Str(s))
    } else if text == "true" {
        Ok(Value::Bool(true))
    } else if text == "false" {
        Ok(Value::Bool(false))
    } else if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or("unterminated array (arrays must be single-line)")?;
        let mut items = Vec::new();
        for piece in split_array(inner)? {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            items.push(parse_value(piece)?);
        }
        Ok(Value::Array(items))
    } else if text.chars().all(|c| c.is_ascii_digit()) && !text.is_empty() {
        text.parse::<u64>()
            .map(Value::Int)
            .map_err(|_| format!("integer out of range: `{text}`"))
    } else {
        Err(format!("unsupported value `{text}` (string/uint/bool/array)"))
    }
}

/// Split array-body text on commas that sit outside string literals.
fn split_array(inner: &str) -> Result<Vec<String>, String> {
    let mut parts = Vec::new();
    let mut buf = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for ch in inner.chars() {
        if escaped {
            buf.push(ch);
            escaped = false;
            continue;
        }
        match ch {
            '\\' if in_str => {
                buf.push(ch);
                escaped = true;
            }
            '"' => {
                buf.push(ch);
                in_str = !in_str;
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut buf));
            }
            _ => buf.push(ch),
        }
    }
    if in_str {
        return Err("unterminated string in array".into());
    }
    parts.push(buf);
    Ok(parts)
}

fn parse_string(text: &str) -> Result<(String, &str), String> {
    let mut out = String::new();
    let mut chars = text.char_indices();
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err("expected opening quote".into()),
    }
    let mut escaped = false;
    for (i, ch) in chars {
        if escaped {
            out.push(match ch {
                'n' => '\n',
                't' => '\t',
                '"' => '"',
                '\\' => '\\',
                other => return Err(format!("unsupported escape `\\{other}`")),
            });
            escaped = false;
        } else if ch == '\\' {
            escaped = true;
        } else if ch == '"' {
            return Ok((out, &text[i + 1..]));
        } else {
            out.push(ch);
        }
    }
    Err("unterminated string".into())
}

/// Render a string with the same escaping `parse_string` understands.
/// The spec serializer uses this for every string field so that any
/// embedded quotes/newlines survive a round-trip.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read `doc`'s root with `f` (the unread-key refusal included).
    fn read<T>(
        doc: &str,
        f: impl FnOnce(&mut Reader) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        Reader::read(&parse(doc).expect("parses"), "document".into(), f)
    }

    #[test]
    fn parses_values_tables_and_arrays_of_tables() {
        let doc = r#"
# top comment
name = "demo"  # trailing comment
seed = 42
flag = true

[user]
login = "vhayot"

[[sites]]
preset = "tamu-faster"
packages = ["vmd=1.9.3", "autodock-vina=1.2.6"]

[[sites]]
preset = "sdsc-expanse"
cores = 128
"#;
        read(doc, |r| {
            assert_eq!(r.req::<String>("name")?, "demo");
            assert_eq!(r.req::<u64>("seed")?, 42);
            assert!(r.req::<bool>("flag")?);
            assert_eq!(r.table("user", |t| t.req::<String>("login"))?, "vhayot");
            let sites = r.tables("sites", |t| {
                Ok((
                    t.req::<String>("preset")?,
                    t.opt::<Vec<String>>("packages")?,
                    t.opt::<u32>("cores")?,
                ))
            })?;
            assert_eq!(sites.len(), 2);
            assert_eq!(
                sites[0].1,
                Some(vec![
                    "vmd=1.9.3".to_string(),
                    "autodock-vina=1.2.6".to_string()
                ])
            );
            assert_eq!(sites[1].2, Some(128));
            Ok(())
        })
        .expect("reads");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a \"quoted\" path\\with\nnewline\ttab";
        let doc = format!("v = {}", quote(original));
        assert_eq!(
            read(&doc, |r| r.req::<String>("v")),
            Ok(original.to_string())
        );
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        assert_eq!(
            read("v = \"a#b\"", |r| r.req::<String>("v")),
            Ok("a#b".to_string())
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("ok = 1\nbroken ===\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse("neg = -3").unwrap_err();
        assert!(err.msg.contains("unsupported value"), "{}", err.msg);
    }

    #[test]
    fn duplicate_keys_rejected() {
        let err = parse("a = 1\na = 2").unwrap_err();
        assert!(err.msg.contains("duplicate"), "{}", err.msg);
    }

    #[test]
    fn nested_and_repeated_tables_are_refused() {
        for (doc, line, msg) in [
            (
                "[cache.x]\nmode = \"off\"",
                1,
                "invalid table name `cache.x`",
            ),
            (
                "[user]\na = 1\n[user]\nb = 2",
                3,
                "table `user` defined twice",
            ),
            ("[[sites]]\n[sites]", 2, "table `sites` defined twice"),
            ("sites = 1\n[[sites]]", 2, "table `sites` defined twice"),
        ] {
            assert_eq!(
                parse(doc).unwrap_err(),
                TomlError {
                    line,
                    msg: msg.into()
                },
                "{doc}"
            );
        }
    }

    #[test]
    fn the_reader_refuses_unread_and_ill_typed_keys() {
        let doc = "a = 1\n[t]\nb = \"x\"\n[[e]]\nc = 1\n[[e]]\nc = 2\nd = true";
        fn refused<T>(read: Result<T, SpecError>) -> String {
            read.map(|_| ()).unwrap_err().0
        }
        for (error, msg) in [
            (
                refused(read(doc, |r| {
                    r.req::<u64>("a")?;
                    r.table("t", |_| Ok(()))
                })),
                "[t]: unknown key `b`",
            ),
            (
                refused(read(doc, |r| r.req::<u64>("a"))),
                "document: unknown key `t`",
            ),
            (
                refused(read(doc, |r| r.tables("e", |t| t.req::<u64>("c")))),
                "[[e]] #1: unknown key `d`",
            ),
            (
                refused(read(doc, |r| r.opt::<bool>("a"))),
                "document: key `a` is not a boolean",
            ),
            (
                refused(read(doc, |r| r.opt::<u64>("t"))),
                "document: key `t` is a table, not a value",
            ),
            (
                refused(read(doc, |r| r.tables("t", |_| Ok(())))),
                "document: `t` is not a `[[t]]` array",
            ),
            (
                refused(read(doc, |r| r.req::<u64>("z"))),
                "document: missing key `z`",
            ),
            (
                refused(read("a = [1, \"x\"]", |r| r.req::<Vec<u64>>("a"))),
                "document: key `a` has an element that is not an integer",
            ),
        ] {
            assert_eq!(error, msg);
        }
    }
}
