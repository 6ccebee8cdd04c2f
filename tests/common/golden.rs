//! The golden-file comparison the root suites share.

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
