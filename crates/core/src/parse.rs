//! Recursive-descent parser for SHILL scripts and contracts.
//!
//! The ambient dialect's restrictions (§3.1.2: "it may not do anything other
//! than import capability-safe SHILL scripts, create strings and other base
//! values, define (immutable) variables, and invoke functions") are enforced
//! here, so an ambient script containing `fun`, `if`, or `for` is rejected
//! at parse time.

use std::rc::Rc;
use std::sync::Arc;

use shill_cap::{CapPrivs, Priv, PrivSet};

use crate::ast::{
    BinOp, ContractExpr, Dialect, Expr, Fun, FuncContract, Pos, Provide, Script, Stmt, UnOp, VarRef,
};
use crate::lex::{lex, Tok, Token};

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub pos: Pos,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Deepest expression/contract nesting the parser accepts. Recursive
/// descent consumes native stack per nesting level; adversarial input
/// (`((((…`, `!!!!…x`) must produce a clean [`ParseError`], not a stack
/// overflow. The bound sits above anything a reasonable script needs and
/// below the thread stack limit, mirroring the evaluator's own call-depth
/// cap.
const MAX_PARSE_DEPTH: usize = 200;

struct Parser {
    toks: Vec<Token>,
    i: usize,
    dialect: Dialect,
    /// Current recursion depth across `expr`/`unary_expr`/`contract` — the
    /// three choke points every recursive production passes through.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn peek2(&self) -> &Tok {
        self.toks
            .get(self.i + 1)
            .map(|t| &t.tok)
            .unwrap_or(&Tok::Eof)
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    /// Step past the current token; the last token (`Eof`) is never
    /// passed.
    fn bump(&mut self) {
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: Tok, what: &str) -> PResult<()> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> PResult<String> {
        match self.peek() {
            Tok::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    // --- script structure -------------------------------------------------

    fn script(&mut self) -> PResult<Script> {
        // `#lang shill/cap` or `#lang shill/ambient`
        self.expect(Tok::Lang, "#lang header")?;
        let lang = self.ident("language name")?;
        self.dialect = match lang.as_str() {
            "shill/cap" => Dialect::CapSafe,
            "shill/ambient" => Dialect::Ambient,
            other => return Err(self.err(format!("unknown language {other:?}"))),
        };
        let mut requires = Vec::new();
        let mut provides = Vec::new();
        let mut body = Vec::new();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Require => {
                    self.bump();
                    let name = match self.peek() {
                        Tok::Str(s) | Tok::Ident(s) => {
                            let s = s.clone();
                            self.bump();
                            s
                        }
                        other => {
                            return Err(self.err(format!("expected module name, found {other:?}")))
                        }
                    };
                    self.expect(Tok::Semi, "';' after require")?;
                    requires.push(name);
                }
                Tok::Provide => {
                    if self.dialect == Dialect::Ambient {
                        return Err(self.err("ambient scripts cannot provide functions"));
                    }
                    let pos = self.pos();
                    self.bump();
                    let name = self.ident("provided name")?;
                    self.expect(Tok::Colon, "':' in provide")?;
                    let contract = self.contract()?;
                    self.expect(Tok::Semi, "';' after provide")?;
                    provides.push(Provide {
                        name,
                        contract: Arc::new(contract),
                        pos,
                    });
                }
                _ => body.push(self.stmt()?),
            }
        }
        Ok(Script {
            dialect: self.dialect,
            requires,
            provides,
            body,
        })
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        // `name = expr ;?` is a definition (unless it's `==`).
        if let Tok::Ident(name) = self.peek() {
            if *self.peek2() == Tok::Assign {
                let name = name.clone();
                let pos = self.pos();
                self.bump(); // ident
                self.bump(); // =
                let expr = self.expr()?;
                // Trailing semicolon is optional after `}`-terminated exprs
                // (matching the paper's figures).
                if *self.peek() == Tok::Semi {
                    self.bump();
                }
                return Ok(Stmt::Def {
                    name,
                    expr,
                    pos,
                    slot: 0,
                });
            }
        }
        let e = self.expr()?;
        let semi = *self.peek() == Tok::Semi;
        if semi {
            self.bump();
        }
        Ok(Stmt::Expr(e, semi))
    }

    /// A block `{ stmt* }`, or a single statement (for `then`-branches).
    fn block_or_stmt(&mut self) -> PResult<Vec<Stmt>> {
        if *self.peek() == Tok::LBrace {
            self.bump();
            let mut stmts = Vec::new();
            while *self.peek() != Tok::RBrace {
                if *self.peek() == Tok::Eof {
                    return Err(self.err("unterminated block"));
                }
                stmts.push(self.stmt()?);
            }
            self.bump();
            Ok(stmts)
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    // --- expressions --------------------------------------------------------

    fn enter(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            self.depth -= 1;
            return Err(self.err("expression nesting too deep"));
        }
        Ok(())
    }

    fn expr(&mut self) -> PResult<Expr> {
        self.enter()?;
        let r = self.expr_unguarded();
        self.depth -= 1;
        r
    }

    fn expr_unguarded(&mut self) -> PResult<Expr> {
        if self.dialect == Dialect::Ambient {
            // Ambient restriction: flag structured control flow.
            match self.peek() {
                Tok::Fun => return Err(self.err("ambient scripts cannot define functions")),
                Tok::If => return Err(self.err("ambient scripts cannot use conditionals")),
                Tok::For => return Err(self.err("ambient scripts cannot use loops")),
                _ => {}
            }
        }
        self.or_expr()
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.and_expr()?;
        while *self.peek() == Tok::OrOr {
            let pos = self.pos();
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.cmp_expr()?;
        while *self.peek() == Tok::AndAnd {
            let pos = self.pos();
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        let pos = self.pos();
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            pos,
        })
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                Tok::Concat => BinOp::Concat,
                _ => return Ok(lhs),
            };
            let pos = self.pos();
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.unary_expr()?;
        while *self.peek() == Tok::Star {
            let pos = self.pos();
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        // Self-recursive (`--x`, `!!x`) without re-entering `expr`, so it
        // needs its own slot in the shared depth budget.
        self.enter()?;
        let r = self.unary_unguarded();
        self.depth -= 1;
        r
    }

    fn unary_unguarded(&mut self) -> PResult<Expr> {
        match self.peek() {
            Tok::Not => {
                let pos = self.pos();
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                    pos,
                })
            }
            Tok::Minus => {
                let pos = self.pos();
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                    pos,
                })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        while *self.peek() == Tok::LParen {
            let pos = self.pos();
            self.bump();
            let mut args = Vec::new();
            let mut kwargs = Vec::new();
            while *self.peek() != Tok::RParen {
                // keyword argument `name = expr`?
                if let Tok::Ident(n) = self.peek() {
                    if *self.peek2() == Tok::Assign {
                        let n = n.clone();
                        self.bump();
                        self.bump();
                        let v = self.expr()?;
                        kwargs.push((n.into(), v));
                        if *self.peek() == Tok::Comma {
                            self.bump();
                        }
                        continue;
                    }
                }
                args.push(self.expr()?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                }
            }
            self.expect(Tok::RParen, "')'")?;
            e = Expr::Call {
                callee: Box::new(e),
                args,
                kwargs,
                pos,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let pos = self.pos();
        match self.peek() {
            Tok::Num(n) => {
                let n = *n;
                self.bump();
                Ok(Expr::Num(n, pos))
            }
            Tok::Str(s) => {
                let s = s.clone();
                self.bump();
                Ok(Expr::Str(s.into(), pos))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::Bool(true, pos))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Bool(false, pos))
            }
            Tok::Ident(name) => {
                let name = name.clone();
                self.bump();
                Ok(Expr::Var(VarRef {
                    name,
                    pos,
                    ..VarRef::default()
                }))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                while *self.peek() != Tok::RBracket {
                    items.push(self.expr()?);
                    if *self.peek() == Tok::Comma {
                        self.bump();
                    }
                }
                self.bump();
                Ok(Expr::List(items, pos))
            }
            Tok::Fun => {
                self.bump();
                self.expect(Tok::LParen, "'(' after fun")?;
                let mut params = Vec::new();
                while *self.peek() != Tok::RParen {
                    params.push(self.ident("parameter name")?);
                    if *self.peek() == Tok::Comma {
                        self.bump();
                    }
                }
                self.bump();
                let body = self.block_or_stmt()?;
                let fun = Fun {
                    params,
                    body,
                    param_slots: Vec::new(),
                    frame_size: 0,
                };
                Ok(Expr::Fun(Rc::new(fun), pos))
            }
            Tok::If => {
                self.bump();
                let cond = self.expr()?;
                self.expect(Tok::Then, "'then'")?;
                let then = self.block_or_stmt()?;
                let els = if *self.peek() == Tok::Else {
                    self.bump();
                    Some(self.block_or_stmt()?)
                } else {
                    None
                };
                Ok(Expr::If {
                    cond: Box::new(cond),
                    then,
                    els,
                    pos,
                })
            }
            Tok::For => {
                self.bump();
                let var = self.ident("loop variable")?;
                self.expect(Tok::In, "'in'")?;
                let iter = self.expr()?;
                let body = self.block_or_stmt()?;
                Ok(Expr::For {
                    var,
                    iter: Box::new(iter),
                    body,
                    frame_size: 0,
                    pos,
                })
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }

    // --- contracts -----------------------------------------------------------

    fn contract(&mut self) -> PResult<ContractExpr> {
        self.enter()?;
        let r = self.contract_unguarded();
        self.depth -= 1;
        r
    }

    fn contract_unguarded(&mut self) -> PResult<ContractExpr> {
        if *self.peek() == Tok::Forall {
            self.bump();
            let var = self.ident("contract variable")?;
            self.expect(Tok::With, "'with'")?;
            self.expect(Tok::LBrace, "'{'")?;
            let bound = self.priv_set()?;
            self.expect(Tok::RBrace, "'}'")?;
            self.expect(Tok::Dot, "'.' after forall bound")?;
            let body = self.contract()?;
            return Ok(ContractExpr::Forall {
                var,
                bound,
                body: Box::new(body),
            });
        }
        self.contract_arrow()
    }

    fn contract_arrow(&mut self) -> PResult<ContractExpr> {
        // Function contract `{a : C, ...} -> C` | disjunction (`X -> C` also
        // allowed: single unnamed argument, used by `filter : X -> is_bool`).
        if *self.peek() == Tok::LBrace {
            self.bump();
            let mut args = Vec::new();
            while *self.peek() != Tok::RBrace {
                let name = self.ident("argument name")?;
                self.expect(Tok::Colon, "':'")?;
                let c = self.contract()?;
                args.push((name, c));
                if *self.peek() == Tok::Comma {
                    self.bump();
                }
            }
            self.bump();
            self.expect(Tok::Arrow, "'->' after contract domain")?;
            let result = self.contract()?;
            return Ok(ContractExpr::Func(Arc::new(FuncContract {
                args,
                kwargs: vec![],
                result,
            })));
        }
        let lhs = self.contract_or()?;
        if *self.peek() == Tok::Arrow {
            self.bump();
            let result = self.contract()?;
            return Ok(ContractExpr::Func(Arc::new(FuncContract {
                args: vec![("arg".to_string(), lhs)],
                kwargs: vec![],
                result,
            })));
        }
        Ok(lhs)
    }

    fn contract_or(&mut self) -> PResult<ContractExpr> {
        let mut items = vec![self.contract_and()?];
        while *self.peek() == Tok::OrC {
            self.bump();
            items.push(self.contract_and()?);
        }
        if items.len() == 1 {
            Ok(items.pop().unwrap())
        } else {
            Ok(ContractExpr::Or(items))
        }
    }

    fn contract_and(&mut self) -> PResult<ContractExpr> {
        let mut items = vec![self.contract_atom()?];
        while *self.peek() == Tok::AndAnd {
            self.bump();
            items.push(self.contract_atom()?);
        }
        if items.len() == 1 {
            Ok(items.pop().unwrap())
        } else {
            Ok(ContractExpr::And(items))
        }
    }

    fn contract_atom(&mut self) -> PResult<ContractExpr> {
        match self.peek() {
            Tok::LParen => {
                self.bump();
                let c = self.contract()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(c)
            }
            Tok::Ident(name) => {
                let with_privs: Option<fn(CapPrivs) -> ContractExpr> = match name.as_str() {
                    "file" => Some(ContractExpr::File),
                    "dir" => Some(ContractExpr::Dir),
                    "socket" => Some(ContractExpr::Socket),
                    "socket_factory" => Some(|p| ContractExpr::SocketFactory(p.privs)),
                    _ => None,
                };
                if let Some(make) = with_privs.filter(|_| *self.peek2() == Tok::LParen) {
                    self.bump();
                    self.bump();
                    let privs = self.cap_privs()?;
                    self.expect(Tok::RParen, "')'")?;
                    return Ok(make(privs));
                }
                let c = named_contract(name);
                self.bump();
                Ok(c)
            }
            other => Err(self.err(format!("unexpected token {other:?} in contract"))),
        }
    }

    /// `+p, +q with {+a, +b}, ...` inside `file(...)`/`dir(...)`.
    fn cap_privs(&mut self) -> PResult<CapPrivs> {
        let mut out = CapPrivs::none();
        loop {
            match self.peek() {
                Tok::PrivName(name) => {
                    let p = Priv::parse(name).ok_or_else(|| format!("unknown privilege +{name}"));
                    self.bump();
                    let p = p.map_err(|m| self.err(m))?;
                    if *self.peek() == Tok::With {
                        self.bump();
                        self.expect(Tok::LBrace, "'{' after with")?;
                        let derived = self.priv_set()?;
                        self.expect(Tok::RBrace, "'}'")?;
                        if !p.derives() {
                            return Err(self.err(format!(
                                "privilege {p} does not derive capabilities; `with` is invalid"
                            )));
                        }
                        out = out.with_modifier(p, CapPrivs::of(derived));
                    } else {
                        out.privs.insert(p);
                    }
                    if *self.peek() == Tok::Comma {
                        self.bump();
                        continue;
                    }
                    break;
                }
                Tok::RParen | Tok::RBrace => break,
                other => return Err(self.err(format!("expected privilege, found {other:?}"))),
            }
        }
        Ok(out)
    }

    fn priv_set(&mut self) -> PResult<PrivSet> {
        let mut set = PrivSet::EMPTY;
        loop {
            match self.peek() {
                Tok::PrivName(name) => {
                    let p = Priv::parse(name).ok_or_else(|| format!("unknown privilege +{name}"));
                    self.bump();
                    set.insert(p.map_err(|m| self.err(m))?);
                    if *self.peek() == Tok::Comma {
                        self.bump();
                        continue;
                    }
                    break;
                }
                Tok::RBrace => break,
                other => return Err(self.err(format!("expected +privilege, found {other:?}"))),
            }
        }
        Ok(set)
    }
}

/// The contract an identifier names when no privilege list follows it.
/// Contract variables are single uppercase letters by convention; any
/// other unknown name is a named contract alias or user-defined predicate,
/// resolved at wrap time.
fn named_contract(name: &str) -> ContractExpr {
    match name {
        "is_file" => ContractExpr::IsFile,
        "is_dir" => ContractExpr::IsDir,
        "is_pipe" => ContractExpr::IsPipe,
        "is_bool" => ContractExpr::IsBool,
        "is_num" => ContractExpr::IsNum,
        "is_string" => ContractExpr::IsString,
        "is_list" => ContractExpr::IsList,
        "is_fun" => ContractExpr::IsFun,
        "void" => ContractExpr::Void,
        "any" => ContractExpr::Any,
        "pipe_factory" => ContractExpr::PipeFactory,
        "native_wallet" => ContractExpr::NativeWallet,
        "wallet" => ContractExpr::Wallet,
        "socket_factory" => ContractExpr::SocketFactory(PrivSet::of(&[
            Priv::SockCreate,
            Priv::SockBind,
            Priv::SockConnect,
            Priv::SockListen,
            Priv::SockAccept,
            Priv::SockSend,
            Priv::SockRecv,
        ])),
        _ if name.len() <= 2 && name.chars().all(|c| c.is_ascii_uppercase()) => {
            ContractExpr::Var(name.to_string())
        }
        _ => ContractExpr::Named(name.to_string()),
    }
}

/// Parse a complete script.
pub fn parse_script(src: &str) -> PResult<Script> {
    let toks = lex(src).map_err(|e| ParseError {
        pos: e.pos,
        message: e.message,
    })?;
    let mut p = Parser {
        toks,
        i: 0,
        dialect: Dialect::CapSafe,
        depth: 0,
    };
    p.script()
}

/// Parse a standalone contract (tests, tooling).
pub fn parse_contract(src: &str) -> PResult<ContractExpr> {
    let toks = lex(src).map_err(|e| ParseError {
        pos: e.pos,
        message: e.message,
    })?;
    let mut p = Parser {
        toks,
        i: 0,
        dialect: Dialect::CapSafe,
        depth: 0,
    };
    let c = p.contract()?;
    if *p.peek() != Tok::Eof {
        return Err(p.err("trailing tokens after contract"));
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_find_jpg_figure3() {
        let src = r#"#lang shill/cap

provide find_jpg :
  {cur : dir(+contents, +lookup, +path) \/ file(+path),
   out : file(+append)} -> void;

find_jpg = fun(cur, out) {
  if is_file(cur) && has_ext(cur, ''jpg'') then
    append(out, path(cur));

  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then
        find_jpg(child, out);
    }
}
"#;
        let s = parse_script(src).unwrap();
        assert_eq!(s.dialect, Dialect::CapSafe);
        assert_eq!(s.provides.len(), 1);
        assert_eq!(s.provides[0].name, "find_jpg");
        match &*s.provides[0].contract {
            ContractExpr::Func(fc) => {
                assert_eq!(fc.args.len(), 2);
                assert_eq!(fc.args[0].0, "cur");
                assert!(matches!(fc.args[0].1, ContractExpr::Or(_)));
                assert_eq!(fc.result, ContractExpr::Void);
            }
            other => panic!("expected function contract, got {other:?}"),
        }
        assert_eq!(s.body.len(), 1);
    }

    #[test]
    fn parses_polymorphic_find_figure5() {
        let c = parse_contract(
            "forall X with {+lookup, +contents} . {cur : X, filter : X -> is_bool, cmd : X -> void} -> void",
        )
        .unwrap();
        match c {
            ContractExpr::Forall { var, bound, body } => {
                assert_eq!(var, "X");
                assert!(bound.contains(Priv::Lookup));
                assert!(bound.contains(Priv::Contents));
                match *body {
                    ContractExpr::Func(fc) => {
                        assert_eq!(fc.args.len(), 3);
                        assert_eq!(fc.args[0].1, ContractExpr::Var("X".into()));
                        match &fc.args[1].1 {
                            ContractExpr::Func(inner) => {
                                assert_eq!(inner.args[0].1, ContractExpr::Var("X".into()));
                                assert_eq!(inner.result, ContractExpr::IsBool);
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_grade_contract_figure1() {
        let c = parse_contract(
            "{submission : is_file && readonly, tests : is_dir && readonly, \
             working : dir(+create_dir with {+create_file, +create_dir, +read, +write, +append, +lookup, +contents, +path, +stat, +unlink_file}), \
             grade_log : is_file && writeable, wallet : native_wallet} -> void",
        )
        .unwrap();
        match c {
            ContractExpr::Func(fc) => {
                assert_eq!(fc.args.len(), 5);
                assert!(matches!(fc.args[0].1, ContractExpr::And(_)));
                assert_eq!(fc.args[4].1, ContractExpr::NativeWallet);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn with_modifier_parses_into_capprivs() {
        let c = parse_contract("dir(+contents, +lookup with {+path, +stat})").unwrap();
        match c {
            ContractExpr::Dir(p) => {
                assert!(p.allows(Priv::Contents));
                assert!(p.allows(Priv::Lookup));
                let m = p.modifiers.get(&Priv::Lookup).unwrap();
                assert!(m.allows(Priv::Path));
                assert!(m.allows(Priv::Stat));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ambient_restrictions_enforced() {
        let bad_fun = "#lang shill/ambient\nf = fun(x) { x };";
        assert!(parse_script(bad_fun).is_err());
        let bad_if = "#lang shill/ambient\nif true then 1;";
        assert!(parse_script(bad_if).is_err());
        let bad_provide = "#lang shill/ambient\nprovide f : any;";
        assert!(parse_script(bad_provide).is_err());
        let ok = "#lang shill/ambient\nrequire \"jpeginfo.cap\";\nroot = open_dir(\"/\");\njpeginfo(root);";
        assert!(parse_script(ok).is_ok());
    }

    #[test]
    fn keyword_arguments_parse() {
        let src = "#lang shill/cap\nexec(jpeg, [\"-i\", f], stdout = out, extras = [libc]);";
        let s = parse_script(src).unwrap();
        match &s.body[0] {
            Stmt::Expr(Expr::Call { args, kwargs, .. }, _) => {
                assert_eq!(args.len(), 2);
                assert_eq!(kwargs.len(), 2);
                assert_eq!(&*kwargs[0].0, "stdout");
                assert_eq!(&*kwargs[1].0, "extras");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn redefinition_ok_at_parse_time_nested_blocks() {
        // `x = e` inside a function body is a local binding.
        let src = "#lang shill/cap\nf = fun(a) { x = a; x };";
        assert!(parse_script(src).is_ok());
    }

    #[test]
    fn named_contract_and_var_distinction() {
        assert_eq!(
            parse_contract("readonly").unwrap(),
            ContractExpr::Named("readonly".into())
        );
        assert_eq!(parse_contract("X").unwrap(), ContractExpr::Var("X".into()));
        assert_eq!(
            parse_contract("ocaml_wallet").unwrap(),
            ContractExpr::Named("ocaml_wallet".into())
        );
    }

    #[test]
    fn parse_error_reports_position() {
        let err = parse_script("#lang shill/cap\nx = ;").unwrap_err();
        assert_eq!(err.pos.line, 2);
    }
}
