//! Policy-file support for the command-line debugging tool (§3.2.2):
//! "there is a command-line tool for running a single shell command with
//! capabilities specified in a policy file."
//!
//! Format (one rule per line, `#` comments):
//!
//! ```text
//! # grant privileges on a path
//! path /usr/src +lookup +contents +stat +read +path
//! # with a derivation modifier
//! path /usr/src +lookup with {+read,+path} +contents
//! socket-factory +sock-create +sock-connect +sock-send +sock-recv
//! pipe-factory
//! ```

use std::sync::Arc;

use shill_cap::{CapPrivs, Priv, PrivSet, RawCap};
use shill_kernel::{Kernel, ObjId, Pid};
use shill_vfs::{Errno, SysResult};

use crate::harness::{Grant, SandboxSpec};

/// A parsed policy rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// Grant privileges on the resource at `path`.
    Path { path: String, privs: CapPrivs },
    /// Grant a socket factory with the given privileges.
    SocketFactory { privs: PrivSet },
    /// Grant a pipe factory.
    PipeFactory,
}

/// Parse error with line number for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse privilege tokens, handling `+p with {+a,+b}` modifiers.
fn parse_privs(tokens: &[&str], line: usize) -> Result<CapPrivs, ParseError> {
    let mut out = CapPrivs::none();
    let mut i = 0;
    while i < tokens.len() {
        let t = tokens[i];
        let name = t.strip_prefix('+').ok_or_else(|| ParseError {
            line,
            message: format!("expected privilege (+name), got {t:?}"),
        })?;
        let p = Priv::parse(name).ok_or_else(|| ParseError {
            line,
            message: format!("unknown privilege +{name}"),
        })?;
        // Check for `with {…}`.
        if i + 1 < tokens.len() && tokens[i + 1] == "with" {
            if !p.derives() {
                return Err(ParseError {
                    line,
                    message: format!(
                        "privilege {p} does not derive capabilities; `with` is invalid"
                    ),
                });
            }
            let rest = tokens[i + 2..].join(" ");
            if !rest.starts_with('{') {
                return Err(ParseError {
                    line,
                    message: "expected { after with".into(),
                });
            }
            let close = rest.find('}').ok_or_else(|| ParseError {
                line,
                message: "unterminated modifier set".into(),
            })?;
            let inner = &rest[1..close];
            let mut derived = PrivSet::EMPTY;
            for part in inner.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let dn = part.strip_prefix('+').ok_or_else(|| ParseError {
                    line,
                    message: format!("expected +priv in modifier, got {part:?}"),
                })?;
                let dp = Priv::parse(dn).ok_or_else(|| ParseError {
                    line,
                    message: format!("unknown privilege +{dn}"),
                })?;
                derived.insert(dp);
            }
            out = out.with_modifier(p, CapPrivs::of(derived));
            // Advance past `with {...}`: count tokens consumed.
            let consumed_str = &rest[..=close];
            let consumed_tokens = consumed_str.split_whitespace().count();
            i += 2 + consumed_tokens - 1; // `with` + modifier tokens
            i += 1;
            continue;
        }
        out.privs.insert(p);
        i += 1;
    }
    Ok(out)
}

/// Parse a policy file.
pub fn parse_policy(text: &str) -> Result<Vec<Rule>, ParseError> {
    let mut rules = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "path" => {
                if tokens.len() < 2 {
                    return Err(ParseError {
                        line: line_no,
                        message: "path needs a pathname".into(),
                    });
                }
                let privs = parse_privs(&tokens[2..], line_no)?;
                rules.push(Rule::Path {
                    path: tokens[1].to_string(),
                    privs,
                });
            }
            "socket-factory" => {
                let privs = parse_privs(&tokens[1..], line_no)?;
                let mut set = privs.privs;
                set.insert(Priv::SockCreate);
                rules.push(Rule::SocketFactory { privs: set });
            }
            "pipe-factory" => rules.push(Rule::PipeFactory),
            other => {
                return Err(ParseError {
                    line: line_no,
                    message: format!("unknown rule {other:?}"),
                })
            }
        }
    }
    Ok(rules)
}

/// Resolve rules into a [`SandboxSpec`], using `pid`'s ambient authority to
/// open the named paths (this is the trusted, user-facing side of the tool).
pub fn build_spec(k: &mut Kernel, pid: Pid, rules: &[Rule]) -> SysResult<SandboxSpec> {
    let mut spec = SandboxSpec::default();
    for rule in rules {
        match rule {
            Rule::Path { path, privs } => {
                let cap = RawCap::open_path(k, pid, path)?;
                let node = cap.node.ok_or(Errno::EINVAL)?;
                spec.grants.push(Grant {
                    obj: ObjId::Vnode(node),
                    privs: Arc::new(privs.clone()),
                });
            }
            Rule::SocketFactory { privs } => {
                spec.socket_privs = spec.socket_privs.union(*privs);
            }
            Rule::PipeFactory => spec.pipe_factory = true,
        }
    }
    // The grants name vnodes, not descriptors: close the ones opened to
    // resolve the paths.
    k.drain_closes();
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_rules() {
        let text = "\n# demo\npath /usr/src +lookup +contents +read\nsocket-factory +sock-connect\npipe-factory\n";
        let rules = parse_policy(text).unwrap();
        assert_eq!(rules.len(), 3);
        match &rules[0] {
            Rule::Path { path, privs } => {
                assert_eq!(path, "/usr/src");
                assert!(privs.allows(Priv::Lookup));
                assert!(privs.allows(Priv::Contents));
                assert!(privs.allows(Priv::Read));
                assert!(!privs.allows(Priv::Write));
            }
            _ => panic!("expected path rule"),
        }
        match &rules[1] {
            Rule::SocketFactory { privs } => {
                assert!(privs.contains(Priv::SockCreate));
                assert!(privs.contains(Priv::SockConnect));
            }
            _ => panic!("expected socket-factory"),
        }
        assert_eq!(rules[2], Rule::PipeFactory);
    }

    #[test]
    fn parses_with_modifier() {
        let rules = parse_policy("path /d +lookup with {+read, +path} +contents").unwrap();
        match &rules[0] {
            Rule::Path { privs, .. } => {
                assert!(privs.allows(Priv::Lookup));
                assert!(privs.allows(Priv::Contents));
                let m = privs.modifiers.get(&Priv::Lookup).expect("modifier");
                assert!(m.allows(Priv::Read));
                assert!(m.allows(Priv::Path));
                assert!(!m.allows(Priv::Lookup));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_policy("frobnicate /x").is_err());
        assert!(parse_policy("path /x read").is_err());
        assert!(parse_policy("path /x +no-such-priv").is_err());
        assert!(
            parse_policy("path /x +read with {+stat}").is_err(),
            "+read does not derive"
        );
        let err = parse_policy("path").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn build_spec_resolves_paths() {
        use shill_vfs::{Cred, Gid, Mode, Uid};
        let mut k = Kernel::new();
        k.fs.put_file("/etc/x.conf", b"", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let pid = k.spawn_user(Cred::user(100));
        let rules = parse_policy("path /etc/x.conf +read\npipe-factory").unwrap();
        let spec = build_spec(&mut k, pid, &rules).unwrap();
        assert_eq!(spec.grants.len(), 1);
        assert!(spec.pipe_factory);
        let missing = parse_policy("path /nope +read").unwrap();
        assert!(build_spec(&mut k, pid, &missing).is_err());
    }
}
