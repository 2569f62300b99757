//! `busy-poll`: a runtime loop must not wake up on a sub-millisecond
//! timer to look for something that could have woken it. A
//! `recv_timeout` / `wait_timeout` / `sleep` of a few hundred
//! microseconds inside a loop costs nothing while one thread does it and
//! a core's worth of system time once every parked rank of every
//! in-flight stage does (PR 12: ~100 parked A ranks at 5 000 wake-ups a
//! second each were a quarter to half of a query's CPU). Block on the
//! event instead — a channel message, a condvar, a waker registered on
//! the cancel token — and keep timeouts for real deadlines.
//!
//! A slice that has no event to wait on (the far side of a bounded
//! channel cannot signal "room again") carries an
//! `// hdm-allow(busy-poll): reason` naming what it polls for and why it
//! only runs under that condition.

use super::Ctx;
use crate::lexer::{Kind, Token};
use crate::Diagnostic;

pub const ID: &str = "busy-poll";
pub const DESCRIPTION: &str =
    "no sub-millisecond recv_timeout/wait_timeout/sleep inside a runtime loop: \
     block on the event (message, condvar, cancel waker) instead of polling for it";

pub fn check(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.tokens;
    let loops = loop_bodies(toks);
    for (i, tok) in toks.iter().enumerate() {
        let timed_wait = tok.kind == Kind::Ident
            && matches!(tok.text.as_str(), "recv_timeout" | "wait_timeout" | "sleep")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !timed_wait || ctx.in_test(tok.line) {
            continue;
        }
        if !loops.iter().any(|&(open, close)| open < i && i < close) {
            continue;
        }
        let close = match_pair(toks, i + 1, '(', ')');
        if let Some(literal) = sub_millisecond_literal(&toks[i + 2..close]) {
            out.push(Diagnostic::new(
                ID,
                ctx.rel,
                tok.line,
                tok.col,
                format!(
                    "{}({literal}) in a loop wakes this thread thousands of times a second; \
                     block on the event it is waiting for, or state with hdm-allow what it \
                     polls and when",
                    tok.text
                ),
            ));
        }
    }
}

/// Token index ranges `(open brace, close brace)` of every `loop`,
/// `while` and `for .. in` body.
fn loop_bodies(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != Kind::Ident {
            continue;
        }
        let is_for = tok.text == "for";
        if !(is_for || tok.text == "while" || tok.text == "loop") {
            continue;
        }
        // The body is the first `{` outside the header's own parentheses
        // and brackets. A `for` with no `in` before it is `impl Trait for
        // Type` or a `for<'a>` bound, not a loop.
        let mut depth = 0i32;
        let mut saw_in = false;
        for (j, t) in toks.iter().enumerate().skip(i + 1) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_ident("in") {
                saw_in = true;
            } else if t.is_punct(';') && depth <= 0 {
                break; // a declaration, not a loop header
            } else if t.is_punct('{') && depth <= 0 {
                if !is_for || saw_in {
                    bodies.push((j, match_pair(toks, j, '{', '}')));
                }
                break;
            }
        }
    }
    bodies
}

/// The sub-millisecond `Duration` constructor among `args`, rendered for
/// the message: `from_micros(n < 1000)`, `from_nanos(n < 1_000_000)` or
/// `from_secs_f32/f64(x < 0.001)`.
fn sub_millisecond_literal(args: &[Token]) -> Option<String> {
    args.windows(3).find_map(|w| {
        let [ctor, open, lit] = w else { return None };
        if ctor.kind != Kind::Ident || !open.is_punct('(') {
            return None;
        }
        let digits: String = lit
            .text
            .chars()
            .filter(|c| *c != '_')
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let short = match (ctor.text.as_str(), lit.kind) {
            ("from_micros", Kind::Int) => digits.parse::<u64>().is_ok_and(|n| n < 1_000),
            ("from_nanos", Kind::Int) => digits.parse::<u64>().is_ok_and(|n| n < 1_000_000),
            ("from_secs_f32" | "from_secs_f64", Kind::Float) => {
                digits.parse::<f64>().is_ok_and(|s| s < 0.001)
            }
            _ => false,
        };
        short.then(|| format!("{}({})", ctor.text, lit.text))
    })
}

/// Index of the closer matching the opener at `open` (or the last token
/// index if unbalanced).
fn match_pair(toks: &[Token], open: usize, opener: char, closer: char) -> usize {
    let mut depth = 0;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(opener) {
            depth += 1;
        } else if t.is_punct(closer) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}
