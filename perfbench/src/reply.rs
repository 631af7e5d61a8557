//! Parsing of the reply lines `sctool serve` writes.
//!
//! A query reply is `ok|fail id=… kind=… sol=… covered=C/R passes=…
//! space=… epochs=… wait_us=… us=… cached=0|1 coal=0|1 gen=… repo=…`;
//! a refusal is `err msg=<reason>`. The `!metrics` listing is a header
//! `ok metrics n=N` followed by N `name value` lines.

use std::collections::BTreeMap;

/// The measured fields of one query reply.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// `true` for `ok`, `false` for `fail` (coverage goal missed).
    pub ok: bool,
    pub kind: String,
    pub sol: usize,
    pub covered: usize,
    pub required: usize,
    pub passes: usize,
    pub space: usize,
    pub wait_us: u64,
    pub us: u64,
    pub cached: bool,
    pub coalesced: bool,
    pub generation: u64,
    pub repo: String,
}

/// Parses one query reply; `Err` carries the line (or the server's
/// `err msg=` reason) for the error tally.
pub fn parse_query_reply(line: &str) -> Result<QueryReply, String> {
    let line = line.trim_end();
    let mut tokens = line.split_whitespace();
    let ok = match tokens.next() {
        Some("ok") => true,
        Some("fail") => false,
        _ => return Err(format!("not a query reply: {line:?}")),
    };
    let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
    for tok in tokens {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad token {tok:?} in {line:?}"))?;
        fields.insert(k, v);
    }
    let get = |k: &str| -> Result<&str, String> {
        fields
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing {k}= in {line:?}"))
    };
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse().map_err(|_| format!("bad {k}= in {line:?}"))
    };
    let (covered, required) = get("covered")?
        .split_once('/')
        .ok_or_else(|| format!("bad covered= in {line:?}"))?;
    let count = |s: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("bad covered= in {line:?}"))
    };
    Ok(QueryReply {
        ok,
        kind: get("kind")?.to_string(),
        sol: num("sol")? as usize,
        covered: count(covered)?,
        required: count(required)?,
        passes: num("passes")? as usize,
        space: num("space")? as usize,
        wait_us: num("wait_us")?,
        us: num("us")?,
        cached: num("cached")? == 1,
        coalesced: num("coal")? == 1,
        generation: num("gen")?,
        repo: get("repo")?.to_string(),
    })
}

/// Body-line count announced by a `!metrics` header (`ok metrics n=12`);
/// `None` for any other line.
pub fn metrics_len(header: &str) -> Option<usize> {
    header
        .trim_end()
        .strip_prefix("ok metrics n=")
        .and_then(|n| n.parse().ok())
}

/// The `name value` lines of a `!metrics` body as a map.
pub fn parse_metrics(body: &[String]) -> Result<BTreeMap<String, f64>, String> {
    body.iter()
        .map(|line| {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad metrics line {line:?}"))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("bad metrics value in {line:?}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

/// The generation an `ok reload gen=N` reply reports.
pub fn parse_reload(line: &str) -> Result<u64, String> {
    line.trim_end()
        .strip_prefix("ok reload gen=")
        .and_then(|g| g.split_whitespace().next())
        .and_then(|g| g.parse().ok())
        .ok_or_else(|| format!("reload refused: {:?}", line.trim_end()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "ok id=17 kind=partial sol=19 covered=3687/3687 passes=9 space=7421 epochs=9 wait_us=120 us=4521 cached=0 coal=0 gen=2 repo=hot1";

    #[test]
    fn parses_every_field_of_a_query_reply() {
        let r = parse_query_reply(LINE).unwrap();
        assert_eq!(
            r,
            QueryReply {
                ok: true,
                kind: "partial".into(),
                sol: 19,
                covered: 3687,
                required: 3687,
                passes: 9,
                space: 7421,
                wait_us: 120,
                us: 4521,
                cached: false,
                coalesced: false,
                generation: 2,
                repo: "hot1".into(),
            }
        );
        let fail = LINE
            .replacen("ok", "fail", 1)
            .replace("covered=3687/", "covered=3000/");
        let r = parse_query_reply(&format!("{fail}\n")).unwrap();
        assert!(!r.ok);
        assert_eq!((r.covered, r.required), (3000, 3687));
    }

    #[test]
    fn refusals_and_damaged_lines_are_errors() {
        assert!(parse_query_reply("err msg=busy").is_err());
        assert!(parse_query_reply("pong").is_err());
        assert!(parse_query_reply("").is_err());
        assert!(parse_query_reply(&LINE.replace("us=4521 ", "")).is_err());
        assert!(parse_query_reply(&LINE.replace("covered=3687/3687", "covered=3687")).is_err());
        assert!(parse_query_reply(&LINE.replace("sol=19", "sol=x")).is_err());
        assert!(parse_query_reply(&LINE.replace(" id=17", " id17")).is_err());
    }

    #[test]
    fn metrics_header_announces_its_body() {
        assert_eq!(metrics_len("ok metrics n=3\n"), Some(3));
        assert_eq!(metrics_len("ok metrics n=x"), None);
        assert_eq!(metrics_len("ok reload gen=2"), None);
        assert_eq!(metrics_len(LINE), None);
    }

    #[test]
    fn metrics_bodies_and_reload_acks() {
        let body = vec![
            "sc_cache_hits_total 12".to_string(),
            "sc_telemetry_enabled 1".to_string(),
        ];
        let m = parse_metrics(&body).unwrap();
        assert_eq!(m["sc_cache_hits_total"], 12.0);
        assert!(parse_metrics(&["nonsense".to_string()]).is_err());
        assert_eq!(parse_reload("ok reload gen=3\n"), Ok(3));
        assert!(parse_reload("err msg=no such file").is_err());
    }
}
