//! Tokenizer for SHILL source.
//!
//! Accepts both ASCII `\/` and the paper's typeset `∨` for contract
//! disjunction, and both `"…"` and the paper's `''…''` string quotes.

use crate::ast::Pos;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // literals / identifiers
    Num(i64),
    Str(String),
    Ident(String),
    /// `+read`, `+create-file` — privilege tokens keep their own kind
    /// because `-` is an operator elsewhere.
    PrivName(String),
    // keywords
    Lang,    // #lang
    Require, // require
    Provide, // provide
    Fun,     // fun
    If,      // if
    Then,    // then
    Else,    // else
    For,     // for
    In,      // in
    True,    // true
    False,   // false
    Forall,  // forall
    With,    // with
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    Dot,
    Assign, // =
    Arrow,  // ->
    OrC,    // \/ or ∨ (contract disjunction)
    AndAnd, // &&
    OrOr,   // ||
    Not,    // !
    Eq,     // ==
    Ne,     // !=
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Concat, // ++
    Eof,
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub tok: Tok,
    pub pos: Pos,
}

/// Lexer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub pos: Pos,
    pub message: String,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

struct Lexer<'a> {
    src: &'a [u8],
    i: usize,
    line: usize,
    col: usize,
    text: &'a str,
}

impl<'a> Lexer<'a> {
    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                // `#` starts a comment *unless* it is the `#lang` header.
                Some(b'#') => {
                    if self.text[self.i..].starts_with("#lang") {
                        return;
                    }
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn ident_like(&mut self) -> String {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric()
                || c == b'_'
                || c == b'/' && {
                    // allow `/` inside `shill/cap`-style module names only when
                    // followed by a letter (so `a / b` still lexes as division-less).
                    matches!(self.peek2(), Some(x) if x.is_ascii_alphabetic())
                }
            {
                self.bump();
            } else {
                break;
            }
        }
        self.text[start..self.i].to_string()
    }

    fn string(&mut self, quote: u8, doubled: bool) -> Result<String, LexError> {
        let mut out = String::new();
        loop {
            let Some(c) = self.bump() else {
                return Err(self.err("unterminated string"));
            };
            if c == quote {
                if doubled {
                    if self.peek() == Some(quote) {
                        self.bump();
                        return Ok(out);
                    }
                    // single quote inside a ''…'' string
                    out.push(quote as char);
                    continue;
                }
                return Ok(out);
            }
            if c == b'\\' && !doubled {
                match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
                    Some(other) => {
                        out.push('\\');
                        out.push(other as char);
                    }
                    None => return Err(self.err("unterminated escape")),
                }
                continue;
            }
            out.push(c as char);
        }
    }

    fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_ws_and_comments();
        let pos = self.pos();
        let mk = |tok| Ok(Token { tok, pos });
        let Some(c) = self.peek() else {
            return mk(Tok::Eof);
        };
        // Unicode ∨ (0xE2 0x88 0xA8)
        if c == 0xE2 && self.text[self.i..].starts_with('∨') {
            self.bump();
            self.bump();
            self.bump();
            return mk(Tok::OrC);
        }
        match c {
            b'#' if self.text[self.i..].starts_with("#lang") => {
                for _ in 0.."#lang".len() {
                    self.bump();
                }
                mk(Tok::Lang)
            }
            b'0'..=b'9' => {
                let start = self.i;
                while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    self.bump();
                }
                let n: i64 = self.text[start..self.i]
                    .parse()
                    .map_err(|_| self.err("number out of range"))?;
                mk(Tok::Num(n))
            }
            b'"' => {
                self.bump();
                let s = self.string(b'"', false)?;
                mk(Tok::Str(s))
            }
            b'\'' if self.peek2() == Some(b'\'') => {
                self.bump();
                self.bump();
                let s = self.string(b'\'', true)?;
                mk(Tok::Str(s))
            }
            b'+' => {
                self.bump();
                if self.peek() == Some(b'+') {
                    self.bump();
                    return mk(Tok::Concat);
                }
                // `+name` privilege token: letters and dashes.
                if matches!(self.peek(), Some(x) if x.is_ascii_alphabetic()) {
                    let start = self.i;
                    while matches!(self.peek(), Some(x) if x.is_ascii_alphanumeric() || x == b'-' || x == b'_')
                    {
                        self.bump();
                    }
                    let name = self.text[start..self.i].replace('_', "-");
                    return mk(Tok::PrivName(name));
                }
                mk(Tok::Plus)
            }
            b'-' => {
                self.bump();
                if self.peek() == Some(b'>') {
                    self.bump();
                    return mk(Tok::Arrow);
                }
                mk(Tok::Minus)
            }
            b'\\' if self.peek2() == Some(b'/') => {
                self.bump();
                self.bump();
                mk(Tok::OrC)
            }
            b'&' if self.peek2() == Some(b'&') => {
                self.bump();
                self.bump();
                mk(Tok::AndAnd)
            }
            b'|' if self.peek2() == Some(b'|') => {
                self.bump();
                self.bump();
                mk(Tok::OrOr)
            }
            b'=' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    return mk(Tok::Eq);
                }
                mk(Tok::Assign)
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    return mk(Tok::Ne);
                }
                mk(Tok::Not)
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    return mk(Tok::Le);
                }
                mk(Tok::Lt)
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    return mk(Tok::Ge);
                }
                mk(Tok::Gt)
            }
            b'(' => {
                self.bump();
                mk(Tok::LParen)
            }
            b')' => {
                self.bump();
                mk(Tok::RParen)
            }
            b'{' => {
                self.bump();
                mk(Tok::LBrace)
            }
            b'}' => {
                self.bump();
                mk(Tok::RBrace)
            }
            b'[' => {
                self.bump();
                mk(Tok::LBracket)
            }
            b']' => {
                self.bump();
                mk(Tok::RBracket)
            }
            b',' => {
                self.bump();
                mk(Tok::Comma)
            }
            b';' => {
                self.bump();
                mk(Tok::Semi)
            }
            b':' => {
                self.bump();
                mk(Tok::Colon)
            }
            b'.' => {
                self.bump();
                mk(Tok::Dot)
            }
            b'*' => {
                self.bump();
                mk(Tok::Star)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let word = self.ident_like();
                let tok = match word.as_str() {
                    "require" => Tok::Require,
                    "provide" => Tok::Provide,
                    "fun" => Tok::Fun,
                    "if" => Tok::If,
                    "then" => Tok::Then,
                    "else" => Tok::Else,
                    "for" => Tok::For,
                    "in" => Tok::In,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "forall" => Tok::Forall,
                    "with" => Tok::With,
                    _ => Tok::Ident(word),
                };
                mk(tok)
            }
            other => Err(self.err(format!("unexpected character {:?}", other as char))),
        }
    }
}

/// Tokenize a whole source file.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
        text: src,
    };
    let mut out = Vec::new();
    loop {
        let t = lx.next_token()?;
        let done = t.tok == Tok::Eof;
        out.push(t);
        if done {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_header_and_keywords() {
        let ts = kinds("#lang shill/cap\nrequire \"x.cap\";");
        assert_eq!(ts[0], Tok::Lang);
        assert_eq!(ts[1], Tok::Ident("shill/cap".into()));
        assert_eq!(ts[2], Tok::Require);
        assert_eq!(ts[3], Tok::Str("x.cap".into()));
    }

    #[test]
    fn lexes_privileges_and_modifiers() {
        let ts = kinds("dir(+contents, +lookup with {+path, +create_file})");
        assert!(ts.contains(&Tok::PrivName("contents".into())));
        assert!(ts.contains(&Tok::PrivName("lookup".into())));
        assert!(ts.contains(&Tok::With));
        assert!(
            ts.contains(&Tok::PrivName("create-file".into())),
            "underscores normalize to dashes"
        );
    }

    #[test]
    fn lexes_both_string_styles() {
        assert_eq!(kinds("\"abc\"")[0], Tok::Str("abc".into()));
        assert_eq!(kinds("''jpg''")[0], Tok::Str("jpg".into()));
        assert_eq!(kinds("''-i''")[0], Tok::Str("-i".into()));
    }

    #[test]
    fn lexes_contract_or_both_ways() {
        assert_eq!(kinds("is_dir \\/ is_file")[1], Tok::OrC);
        assert_eq!(kinds("is_dir ∨ is_file")[1], Tok::OrC);
    }

    #[test]
    fn comments_are_skipped_but_lang_is_not() {
        let ts = kinds("#lang shill/cap\n# a comment\nx = 1;");
        assert_eq!(ts[0], Tok::Lang);
        assert!(ts.contains(&Tok::Ident("x".into())));
        assert!(ts.contains(&Tok::Num(1)));
    }

    #[test]
    fn operators() {
        let ts = kinds("a && b || !c == d != e <= f ++ g -> h");
        assert!(ts.contains(&Tok::AndAnd));
        assert!(ts.contains(&Tok::OrOr));
        assert!(ts.contains(&Tok::Not));
        assert!(ts.contains(&Tok::Eq));
        assert!(ts.contains(&Tok::Ne));
        assert!(ts.contains(&Tok::Le));
        assert!(ts.contains(&Tok::Concat));
        assert!(ts.contains(&Tok::Arrow));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds(r#""a\nb""#)[0], Tok::Str("a\nb".into()));
    }

    #[test]
    fn error_positions() {
        let err = lex("x = @").unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(err.message.contains('@'));
    }
}
