//! The golden-file comparison and table reader the root suites share.
//! Each suite that includes this file uses part of it.
#![allow(dead_code)]

use std::path::Path;

/// Passes when `fresh` equals `golden`, the committed contents of
/// `golden_path`. Otherwise writes `fresh` under cargo's
/// `CARGO_TARGET_TMPDIR`, named as the golden file, and panics naming
/// the golden file, the first line that differs and the fresh file. To
/// update a golden file, copy the fresh one over it, for an intended
/// change only, and say why in CHANGES.md.
pub fn assert_golden(golden_path: &str, golden: &str, fresh: &str) {
    if fresh == golden {
        return;
    }
    let name = Path::new(golden_path).file_name().expect("a file path");
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&written, fresh).expect("write the fresh file");
    let (mut got, mut want) = (fresh.lines(), golden.lines());
    let mut line = 1;
    loop {
        match (got.next(), want.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => panic!(
                "{golden_path} differs at line {line}\n  fresh:  {}\n  golden: {}\nfresh file: {}",
                a.unwrap_or("<end of output>"),
                b.unwrap_or("<end of file>"),
                written.display()
            ),
        }
    }
}

/// One row of a golden table: a line that is neither blank nor a `#`
/// comment, numbered from 1 and split on whitespace.
pub struct Row<'a> {
    pub line: usize,
    pub fields: Vec<&'a str>,
}

impl Row<'_> {
    /// The fields that are not numbers, joined by spaces: a row's name.
    pub fn label(&self) -> String {
        let words = self.fields.iter().filter(|f| f.parse::<f64>().is_err());
        words.copied().collect::<Vec<_>>().join(" ")
    }

    /// Field `i` as a number, after any `name=`; panics naming the line
    /// if it is not one.
    pub fn num(&self, i: usize) -> f64 {
        let field = self.fields.get(i).copied().unwrap_or("<missing>");
        let value = field.rsplit('=').next().unwrap_or_default();
        value
            .parse()
            .unwrap_or_else(|_| panic!("line {}: field {i} {field:?} is not a number", self.line))
    }
}

/// The table rows of a golden output, in file order.
pub fn table_rows(text: &str) -> Vec<Row<'_>> {
    (1..)
        .zip(text.lines())
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|(line, l)| Row {
            line,
            fields: l.split_whitespace().collect(),
        })
        .collect()
}
