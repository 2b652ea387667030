//! Helpers shared by the service's corpus-wide tests: the verify
//! corpus plus the paper kernels, and source rewrites that must not
//! change a program's canonical form.

use cmt_ir::program::Program;
use cmt_verify::{corpus_seeds, generate};
use std::collections::HashMap;

/// Every `corpus_seeds()` program, then the paper kernels.
pub fn corpus() -> Vec<Program> {
    let mut programs: Vec<Program> = corpus_seeds().into_iter().map(generate).collect();
    programs.extend(cmt_suite::kernels::paper_kernels());
    programs
}

const KEYWORDS: [&str; 9] = [
    "PROGRAM", "PARAM", "REAL", "DO", "ENDDO", "SQRT", "ABS", "MIN", "MAX",
];

/// Rewrites every identifier in a program source to a fresh name
/// (`W0`, `W1`, …) with a consistent mapping. Loop variables, arrays,
/// parameters, and the program name all get renamed — none of them may
/// influence the structural key.
pub fn alpha_rename(source: &str) -> String {
    let mut mapping: HashMap<String, String> = HashMap::new();
    let mut out = String::new();
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String, mapping: &mut HashMap<String, String>| {
        if word.is_empty() {
            return;
        }
        let is_ident = word.chars().next().is_some_and(|c| c.is_ascii_alphabetic());
        if is_ident && !KEYWORDS.contains(&word.as_str()) {
            let next = format!("W{}", mapping.len());
            out.push_str(mapping.entry(word.clone()).or_insert(next));
        } else {
            out.push_str(word);
        }
        word.clear();
    };
    for ch in source.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            word.push(ch);
        } else {
            flush(&mut word, &mut out, &mut mapping);
            out.push(ch);
        }
    }
    flush(&mut word, &mut out, &mut mapping);
    out
}

/// Splits the array list of a `REAL` declaration line on top-level
/// commas (commas inside extent parentheses don't count).
fn split_arrays(list: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in list.chars() {
        match ch {
            '(' => {
                depth += 1;
                cur.push(ch);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Re-emits the source with the array declarations reversed, one
/// `REAL` line per array.
pub fn reorder_declarations(source: &str) -> String {
    let mut arrays: Vec<String> = Vec::new();
    let mut body: Vec<String> = Vec::new();
    for line in source.lines() {
        let trimmed = line.trim_start();
        if let Some(list) = trimmed.strip_prefix("REAL ") {
            arrays.extend(split_arrays(list));
        } else {
            body.push(line.to_string());
        }
    }
    arrays.reverse();
    // Re-insert after the header and PARAM lines (array extents may
    // reference parameters) but before the body.
    let insert_at = body
        .iter()
        .rposition(|l| {
            let t = l.trim_start();
            t.starts_with("PROGRAM") || t.starts_with("PARAM")
        })
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut out = body;
    for a in arrays {
        out.insert(insert_at, format!("REAL {a}"));
    }
    out.join("\n")
}
