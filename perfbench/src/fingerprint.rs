//! The machine and configuration a result was measured under.

use std::fmt::Write as _;
use std::path::Path;

use betty_tensor::{Backend, DType};

/// Everything that can flip a timing without a code change.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub workload: &'static str,
    pub seed: u64,
    pub cores: usize,
    pub simd: &'static str,
    pub threads: usize,
    pub backend: Backend,
    pub precision: DType,
    pub commit: Option<String>,
}

impl Fingerprint {
    /// Reads the machine and process settings now in force.
    pub fn capture(workload: &'static str, seed: u64, precision: DType) -> Self {
        Self {
            workload,
            seed,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: simd_level(),
            threads: betty_runtime::configured_threads(),
            backend: Backend::current(),
            precision,
            commit: git_commit(Path::new(".git")),
        }
    }

    /// One JSON object, for the line printed ahead of every result.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"workload\": \"{}\", \"seed\": {}, \"cores\": {}, \"simd\": \"{}\", \
             \"threads\": {}, \"backend\": \"{}\", \"precision\": \"{}\", \"commit\": ",
            self.workload,
            self.seed,
            self.cores,
            self.simd,
            self.threads,
            self.backend.name(),
            self.precision.name(),
        )
        .expect("writing to a String cannot fail");
        match &self.commit {
            Some(c) => write!(s, "\"{c}\"}}"),
            None => write!(s, "null}}"),
        }
        .expect("writing to a String cannot fail");
        s
    }
}

/// Widest vector extension the kernels dispatch to on this CPU.
fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "none"
}

/// The checked-out commit, read from the git directory without running
/// git; `None` outside a git checkout.
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return is_hash(head).then(|| head.to_string());
    };
    if let Ok(loose) = std::fs::read_to_string(git_dir.join(reference)) {
        let hash = loose.trim();
        return is_hash(hash).then(|| hash.to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference && is_hash(hash)).then(|| hash.to_string())
    })
}

fn is_hash(s: &str) -> bool {
    s.len() >= 40 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        let hash = "0123456789abcdef0123456789abcdef01234567";
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("packed-refs"), format!("{hash} refs/heads/main\n")).unwrap();
        assert_eq!(git_commit(&dir).as_deref(), Some(hash));
        let other = hash.replace('0', "f");
        std::fs::write(dir.join("refs/heads/main"), format!("{other}\n")).unwrap();
        assert_eq!(git_commit(&dir), Some(other));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_commit(&dir), None);
    }

    #[test]
    fn json_has_every_field() {
        let f = Fingerprint {
            workload: "w",
            seed: 7,
            cores: 2,
            simd: "avx2",
            threads: 2,
            backend: Backend::Simd,
            precision: DType::F32,
            commit: None,
        };
        assert_eq!(
            f.to_json(),
            "{\"workload\": \"w\", \"seed\": 7, \"cores\": 2, \"simd\": \"avx2\", \
             \"threads\": 2, \"backend\": \"simd\", \"precision\": \"f32\", \"commit\": null}"
        );
    }
}
