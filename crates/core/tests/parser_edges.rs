//! Parser and evaluator edge cases: precedence, comments, error reporting,
//! scoping, and the concrete syntax quirks the paper's figures rely on.

use shill_core::{parse_contract, parse_script, RuntimeConfig, ShillError, ShillRuntime, Value};
use shill_kernel::Kernel;
use shill_vfs::Cred;

fn rt() -> ShillRuntime {
    ShillRuntime::new(Kernel::new(), RuntimeConfig::WithPolicy, Cred::ROOT)
}

fn eval_cap(body: &str) -> Result<Value, ShillError> {
    let mut r = rt();
    r.add_script(
        "m.cap",
        &format!("#lang shill/cap\nmain = fun() {{ {body} }};\nprovide main : {{}} -> any;"),
    );
    r.run("main", "#lang shill/ambient\nrequire \"m.cap\";\nmain()")
}

#[test]
fn operator_precedence() {
    assert_eq!(eval_cap("1 + 2 * 3").unwrap().display(), "7");
    assert_eq!(eval_cap("(1 + 2) * 3").unwrap().display(), "9");
    assert_eq!(eval_cap("10 - 3 - 2").unwrap().display(), "5"); // left assoc
    assert_eq!(eval_cap("1 + 2 == 3").unwrap().display(), "true");
    assert_eq!(
        eval_cap("true || false && false").unwrap().display(),
        "true"
    ); // && binds tighter
    assert_eq!(eval_cap("!false && true").unwrap().display(), "true");
    assert_eq!(eval_cap("-3 + 5").unwrap().display(), "2");
}

#[test]
fn short_circuit_evaluation() {
    // RHS would be a type error if evaluated.
    assert_eq!(
        eval_cap("false && is_num(missing_fn())").unwrap().display(),
        "false"
    );
    assert_eq!(
        eval_cap("true || is_num(missing_fn())").unwrap().display(),
        "true"
    );
}

#[test]
fn comments_and_blank_lines() {
    let src = r#"#lang shill/cap
# leading comment
x = 1; # trailing comment

# another

provide f : {} -> is_num;
f = fun() { x };
"#;
    assert!(parse_script(src).is_ok());
}

#[test]
fn string_styles_and_escapes() {
    assert_eq!(eval_cap(r#""a\tb""#).unwrap().display(), "a\tb");
    assert_eq!(
        eval_cap("''double style''").unwrap().display(),
        "double style"
    );
    assert_eq!(
        eval_cap(r#""concat" ++ ''both''"#).unwrap().display(),
        "concatboth"
    );
}

#[test]
fn nested_functions_and_closures_capture() {
    let v =
        eval_cap("make_adder = fun(n) { fun(m) { n + m } };\n  add5 = make_adder(5);\n  add5(3)")
            .unwrap();
    assert_eq!(v.display(), "8");
}

#[test]
fn loop_variable_scoping() {
    // Each iteration gets a fresh scope: binding inside the body with the
    // same name every iteration must not trip immutability.
    let v = eval_cap("total = foldl_manual();\n  total");
    assert!(v.is_err()); // helper not defined — checks error, not crash
    let mut r = rt();
    r.add_script(
        "loop.cap",
        r#"#lang shill/cap
provide run : {} -> is_num;
run = fun() {
  acc = [0];
  for x in [1, 2, 3] {
    y = x * 2;
    display(to_string(y));
  }
  99
};
"#,
    );
    let v = r
        .run("main", "#lang shill/ambient\nrequire \"loop.cap\";\nrun()")
        .unwrap();
    assert_eq!(v.display(), "99");
}

#[test]
fn if_without_else_yields_void() {
    assert_eq!(eval_cap("if false then 1").unwrap().display(), "void");
    assert_eq!(eval_cap("if true then 1 else 2").unwrap().display(), "1");
    assert_eq!(eval_cap("if false then 1 else 2").unwrap().display(), "2");
}

#[test]
fn blocks_scope_bindings() {
    // A binding inside an if-branch is not visible after it.
    let r = eval_cap("if true then { z = 5; z }\n  z");
    match r {
        Err(ShillError::Runtime(m)) => assert!(m.contains("unbound variable `z`"), "{m}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn list_literals_and_helpers() {
    assert_eq!(eval_cap("length([1, 2, 3])").unwrap().display(), "3");
    assert_eq!(eval_cap("nth([10, 20], 1)").unwrap().display(), "20");
    assert_eq!(eval_cap("[1] ++ [2, 3]").unwrap().display(), "[1, 2, 3]");
    assert_eq!(eval_cap("length([])").unwrap().display(), "0");
    assert!(eval_cap("nth([], 0)").is_err());
    assert_eq!(
        eval_cap("split(\"a:b::c\", \":\")").unwrap().display(),
        "[a, b, c]"
    );
}

#[test]
fn parse_errors_carry_positions() {
    let err = parse_script("#lang shill/cap\n\n\nx = = 2;").unwrap_err();
    assert_eq!(err.pos.line, 4);
    let err = parse_script("#lang shill/cap\nprovide f :").unwrap_err();
    assert!(err.pos.line >= 2);
}

#[test]
fn missing_lang_header_is_rejected() {
    assert!(parse_script("x = 1;").is_err());
    assert!(parse_script("#lang shill/unknown\nx = 1;").is_err());
}

#[test]
fn contract_parse_errors() {
    assert!(
        parse_contract("dir(+read with {+stat})").is_err(),
        "+read does not derive"
    );
    assert!(parse_contract("dir(+no_such)").is_err());
    assert!(parse_contract("{a : is_num} -> ").is_err());
    assert!(
        parse_contract("forall X . is_num").is_err(),
        "forall needs `with`"
    );
}

#[test]
fn contract_and_composes_wrappers() {
    // `is_file && readonly`: flat check plus privilege wrap (Figure 1's
    // submission contract style).
    let mut r = rt();
    r.kernel()
        .fs
        .put_file(
            "/f.txt",
            b"data",
            shill_vfs::Mode(0o644),
            shill_vfs::Uid::ROOT,
            shill_vfs::Gid::WHEEL,
        )
        .unwrap();
    r.add_script(
        "ro.cap",
        r#"#lang shill/cap
provide peek : {f : is_file && readonly} -> is_string;
provide poke : {f : is_file && readonly} -> void;
peek = fun(f) { read(f) };
poke = fun(f) { write(f, "overwrite"); };
"#,
    );
    let v = r
        .run(
            "main",
            "#lang shill/ambient\nrequire \"ro.cap\";\npeek(open_file(\"/f.txt\"))",
        )
        .unwrap();
    assert_eq!(v.display(), "data");
    let err = r
        .run(
            "main2",
            "#lang shill/ambient\nrequire \"ro.cap\";\npoke(open_file(\"/f.txt\"));",
        )
        .unwrap_err();
    assert!(matches!(err, ShillError::Violation(_)));
}

#[test]
fn arity_errors_name_the_function() {
    let mut r = rt();
    r.add_script(
        "f.cap",
        "#lang shill/cap\nprovide f : {a : is_num, b : is_num} -> is_num;\nf = fun(a, b) { a + b };",
    );
    let err = r
        .run("main", "#lang shill/ambient\nrequire \"f.cap\";\nf(1)")
        .unwrap_err();
    match err {
        ShillError::Violation(v) => assert!(v.message.contains("2 arguments"), "{v}"),
        other => panic!("{other}"),
    }
}

#[test]
fn prelude_helpers_handle_moderate_lists() {
    // Pins the usable recursion budget: the recursive prelude helpers must
    // comfortably handle list sizes the case studies use.
    let mut r = rt();
    r.add_script(
        "m.cap",
        r#"#lang shill/cap
require "shill/prelude";
provide total : {} -> is_num;
total = fun() {
  xs = [1] ++ [2] ++ [3] ++ [4] ++ [5] ++ [6] ++ [7] ++ [8] ++ [9] ++ [10]
       ++ [11] ++ [12] ++ [13] ++ [14] ++ [15] ++ [16] ++ [17] ++ [18];
  foldl(fun(a, x) { a + x }, 0, map(fun(x) { x * 2 }, xs))
};
"#,
    );
    let v = r
        .run("main", "#lang shill/ambient\nrequire \"m.cap\";\ntotal()")
        .unwrap();
    assert_eq!(v.display(), "342"); // 2 * (18*19/2)
}

#[test]
fn deep_recursion_is_bounded() {
    let r = eval_cap("loop_forever = fun() { loop_forever() };\n  loop_forever()");
    match r {
        Err(ShillError::Runtime(m)) => assert!(m.contains("depth"), "{m}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn unicode_or_in_contracts() {
    let c = parse_contract("is_dir ∨ is_file").unwrap();
    assert_eq!(c, parse_contract("is_dir \\/ is_file").unwrap());
}

#[test]
fn keyword_argument_evaluation_order_and_passing() {
    let mut r = rt();
    r.add_script(
        "kw.cap",
        r#"#lang shill/cap
provide f : {} -> any;
f = fun() { 1 };
"#,
    );
    // Builtins reject unexpected kwargs.
    let err = r
        .run("main", "#lang shill/ambient\nlength([1], extra = 2)")
        .unwrap_err();
    match err {
        ShillError::Runtime(m) => assert!(m.contains("keyword"), "{m}"),
        other => panic!("{other}"),
    }
}

#[test]
fn removed_deferral_syntax_fails_cleanly() {
    // `async` and `await` are ordinary names, so a script written for the
    // deferred-I/O surface is a positioned parse error, and its builtins
    // are unbound. Its first error is the name after `(await`.
    let src = include_str!("../../../tests/corpus/async-select.shill");
    let err = parse_script(src).unwrap_err();
    assert_eq!((err.pos.line, err.pos.col), (5, 31), "{err}");
    assert_eq!(
        eval_cap("async = 1; await = 2; async + await")
            .unwrap()
            .display(),
        "3"
    );
    for call in ["await_all([1])", "select([1])", "stream_read(1, 2)"] {
        match eval_cap(call) {
            Err(ShillError::Runtime(m)) => assert!(m.contains("unbound variable"), "{call}: {m}"),
            other => panic!("{call}: {other:?}"),
        }
    }
}
