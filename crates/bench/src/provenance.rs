//! Run provenance for the `scaling_ranksim` JSON artifact.
//!
//! A recorded sweep is only comparable to another when it says what
//! produced it: the commit the binary was built from, whether the tree was
//! dirty, the kernel dispatch mode, the platform, and the fault plan.

use std::process::Command;

/// What produced a benchmark artifact.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Abbreviated git commit hash of the working tree, `"unknown"` when
    /// not in a repository (or git is unavailable).
    pub git_commit: String,
    /// Whether the working tree had uncommitted changes.
    pub git_dirty: bool,
    /// Kernel dispatch mode the run resolved to (`POP_BARO_SIMD` / CPU
    /// detection): "portable" or "avx2".
    pub simd_mode: &'static str,
    /// Whether the CPU supports AVX2, regardless of the chosen mode.
    pub avx2_detected: bool,
    /// Whether the CPU supports scalar FMA (used by the mode-shared EVP
    /// chain pass, identically under every dispatch mode).
    pub fma_detected: bool,
    pub os: &'static str,
    pub arch: &'static str,
    /// One-line description of the active network fault plan
    /// (`FaultPlan::describe()`), `None` for a fault-free run. Chaos
    /// benchmarks are not comparable to clean ones; this field keeps them
    /// from being mixed silently.
    pub fault_plan: Option<String>,
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()
}

impl Provenance {
    /// Collect provenance for the current process and working directory.
    pub fn collect() -> Self {
        let git_commit = git(&["rev-parse", "--short=12", "HEAD"])
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let git_dirty = git(&["status", "--porcelain"])
            .map(|s| !s.trim().is_empty())
            .unwrap_or(false);
        Provenance {
            git_commit,
            git_dirty,
            simd_mode: pop_simd::mode().name(),
            avx2_detected: pop_simd::detected_avx2(),
            fma_detected: pop_simd::detected_fma(),
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
            fault_plan: None,
        }
    }

    /// Record the run's fault plan (pass `FaultPlan::describe()`); `None`
    /// marks the run fault-free.
    pub fn with_fault_plan(mut self, plan: Option<String>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Render as a one-line JSON object.
    pub fn json(&self) -> String {
        let fault_plan = match &self.fault_plan {
            Some(v) => format!("\"{v}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\"git_commit\": \"{}\", \"git_dirty\": {}, \"simd_mode\": \"{}\", \
             \"avx2_detected\": {}, \"fma_detected\": {}, \"os\": \"{}\", \"arch\": \"{}\", \
             \"fault_plan\": {}}}",
            self.git_commit,
            self.git_dirty,
            self.simd_mode,
            self.avx2_detected,
            self.fma_detected,
            self.os,
            self.arch,
            fault_plan
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_and_render() {
        let p = Provenance::collect();
        assert!(!p.git_commit.is_empty());
        let j = p.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"git_commit\""));
        assert!(j.contains(&format!("\"os\": \"{}\"", std::env::consts::OS)));
        // Fault-free runs render an explicit null; a recorded plan is quoted.
        assert!(j.contains("\"fault_plan\": null"));
        let chaotic = Provenance::collect().with_fault_plan(Some("seed=7".into()));
        assert!(chaotic.json().contains("\"fault_plan\": \"seed=7\""));
        // Hash is hex or the "unknown" sentinel — never shell noise.
        assert!(
            p.git_commit == "unknown" || p.git_commit.chars().all(|c| c.is_ascii_hexdigit()),
            "suspicious commit field: {}",
            p.git_commit
        );
    }
}
