//! Helpers shared by the golden-file tests (`golden_funnels`, `golden_plans`,
//! `golden_routes`, `golden_sql`).
//!
//! A golden file is a text snapshot checked into `tests/golden/`. Running a
//! test with `UPDATE_GOLDEN=1` rewrites its snapshots instead of comparing
//! them; the diff is then reviewed like any other code change.

use std::path::PathBuf;

/// Compare `actual` with the snapshot `name` in `dir` (relative to the
/// package root, e.g. `tests/golden/routes`), ignoring leading and trailing
/// whitespace. With `UPDATE_GOLDEN` set, write `actual` as the new snapshot.
pub fn assert_matches_golden(dir: &str, name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(dir).join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected.trim(),
        actual.trim(),
        "{} diverged from the golden snapshot; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}
