//! One per-run root for every directory the benchmark writes (CSV emission,
//! persistence directories, the raw WAL probe). Removed when the run ends,
//! on success, on the error path and on a panic alike.

use std::path::{Path, PathBuf};

pub struct Scratch {
    root: PathBuf,
    made: usize,
}

/// Where build products go: the benchmark keeps its files beside them so a
/// run never writes into the tracked tree.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

impl Scratch {
    /// `<base>/<pid>-<seed>/`, created empty.
    pub fn create(base: &Path, seed: u64) -> std::io::Result<Scratch> {
        let root = base.join(format!("{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, made: 0 })
    }

    /// A fresh, empty directory under the root.
    pub fn dir(&mut self, label: &str) -> PathBuf {
        self.made += 1;
        let dir = self.root.join(format!("{label}-{}", self.made));
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        dir
    }

    /// Remove one directory early (a finished pass), keeping disk use flat.
    pub fn discard(&self, dir: &Path) {
        debug_assert!(dir.starts_with(&self.root));
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Every file under `dir` with the extension `ext`, in sorted-path order.
pub fn files_with_extension(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == ext) {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_root_is_removed_on_drop_and_sizes_add_up() {
        let base = std::env::temp_dir().join("r2d2_benchmark_scratch_test");
        let root;
        {
            let mut s = Scratch::create(&base, 42).unwrap();
            let a = s.dir("a");
            let b = s.dir("a");
            assert_ne!(a, b);
            std::fs::create_dir_all(a.join("sub")).unwrap();
            std::fs::write(a.join("sub").join("x.csv"), b"12345").unwrap();
            std::fs::write(a.join("y.csv"), b"123").unwrap();
            std::fs::write(a.join("z.txt"), b"1").unwrap();
            assert_eq!(dir_bytes(&a), 9);
            assert_eq!(
                files_with_extension(&a, "csv"),
                vec![a.join("sub").join("x.csv"), a.join("y.csv")]
            );
            s.discard(&b);
            assert!(!b.exists());
            root = a.parent().unwrap().to_path_buf();
            assert!(root.exists());
        }
        assert!(!root.exists());
        let _ = std::fs::remove_dir(&base);
    }
}
