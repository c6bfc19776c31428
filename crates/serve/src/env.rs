//! Environment knobs for the serving layer, with the workspace's
//! warn-and-fall-back contract: an invalid value prints a warning on stderr
//! and the built-in default stays in force — a typo'd `GBM_SERVE_WORKERS=2O`
//! must not masquerade as a tuned deployment (the same contract
//! `gbm-bench`'s `GBM_EPOCHS`-style knobs follow).

/// Reads and parses an environment knob. `None` when the variable is unset
/// *or* unparsable (the latter warns loudly).
pub(crate) fn env_knob<T: std::str::FromStr>(name: &str, what: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!(
                "warning: ignoring invalid {name}={raw:?} (expected {what}); using the default"
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::artifact::ArtifactConfig;
    use crate::index::IndexConfig;
    use crate::quantized::ScanPrecision;
    use crate::server::ServerConfig;

    /// One test covers every serving knob: env vars are process-wide, so
    /// splitting this across parallel tests would race.
    #[test]
    fn serve_env_knobs_apply_and_fall_back_loudly() {
        // unset: defaults in force
        std::env::remove_var("GBM_SERVE_WORKERS");
        std::env::remove_var("GBM_IVF_CELLS");
        std::env::remove_var("GBM_SCAN_NPROBE");
        std::env::remove_var("GBM_METRICS");
        std::env::remove_var("GBM_TRACE_SAMPLE");
        let sv = ServerConfig::default().with_env();
        assert_eq!(sv.scan_workers, ServerConfig::default().scan_workers);
        assert!(sv.obs.metrics, "metrics default on");
        assert_eq!(sv.obs.trace_sample, 0, "tracing defaults off");

        // valid overrides apply
        std::env::set_var("GBM_SERVE_WORKERS", "3");
        std::env::set_var("GBM_METRICS", "0");
        std::env::set_var("GBM_TRACE_SAMPLE", "100");
        let sv = ServerConfig::default().with_env();
        assert_eq!(sv.scan_workers, 3);
        assert!(!sv.obs.metrics, "GBM_METRICS=0 disables the registry");
        assert_eq!(sv.obs.trace_sample, 100);
        std::env::set_var("GBM_METRICS", "1");
        assert!(ServerConfig::default().with_env().obs.metrics);

        // invalid values warn (stderr) and fall back — not silently ignore
        std::env::set_var("GBM_SERVE_WORKERS", "-1");
        std::env::set_var("GBM_METRICS", "off");
        std::env::set_var("GBM_TRACE_SAMPLE", "every-5th");
        assert_eq!(
            ServerConfig::default().with_env().scan_workers,
            ServerConfig::default().scan_workers
        );
        let sv = ServerConfig::default().with_env();
        assert!(sv.obs.metrics, "unparsable GBM_METRICS keeps the default");
        assert_eq!(sv.obs.trace_sample, 0);

        // zero workers degrade to one at construction, like num_shards
        std::env::set_var("GBM_SERVE_WORKERS", "0");
        assert_eq!(ServerConfig::default().with_env().scan_workers, 0);

        // IVF knobs: GBM_IVF_CELLS always applies; GBM_SCAN_NPROBE only
        // retunes an Ivf precision — on exact precisions it warns and is
        // ignored, so a stray knob cannot change exact-scan semantics
        let ivf = IndexConfig {
            precision: ScanPrecision::Ivf {
                nprobe: 4,
                widen: 2,
            },
            ..Default::default()
        };
        std::env::set_var("GBM_IVF_CELLS", "32");
        std::env::set_var("GBM_SCAN_NPROBE", "7");
        let cfg = ivf.with_env();
        assert_eq!(cfg.ivf_cells, 32);
        assert_eq!(
            cfg.precision,
            ScanPrecision::Ivf {
                nprobe: 7,
                widen: 2
            }
        );
        let exact = IndexConfig::default().with_env();
        assert_eq!(exact.ivf_cells, 32, "cells knob is precision-independent");
        assert_eq!(exact.precision, IndexConfig::default().precision);
        // unparsable values warn and keep the config's own settings
        std::env::set_var("GBM_IVF_CELLS", "many");
        std::env::set_var("GBM_SCAN_NPROBE", "-3");
        let cfg = ivf.with_env();
        assert_eq!(cfg.ivf_cells, 0);
        assert_eq!(
            cfg.precision,
            ScanPrecision::Ivf {
                nprobe: 4,
                widen: 2
            }
        );
        // ServerConfig::with_env composes the index knobs
        std::env::set_var("GBM_IVF_CELLS", "16");
        let sv = ServerConfig {
            index: ivf,
            ..Default::default()
        }
        .with_env();
        assert_eq!(sv.index.ivf_cells, 16);

        // artifact knobs: GBM_ARTIFACT_DIR repoints the reader,
        // GBM_ARTIFACT_MMAP toggles the map path; unparsable values warn
        // and keep the defaults like every other knob
        std::env::remove_var("GBM_ARTIFACT_DIR");
        std::env::remove_var("GBM_ARTIFACT_MMAP");
        let ac = ArtifactConfig::new("/base").with_env();
        assert_eq!(ac.dir, std::path::PathBuf::from("/base"));
        assert!(ac.mmap, "mmap defaults on");
        std::env::set_var("GBM_ARTIFACT_DIR", "/published/here");
        std::env::set_var("GBM_ARTIFACT_MMAP", "false");
        let ac = ArtifactConfig::new("/base").with_env();
        assert_eq!(ac.dir, std::path::PathBuf::from("/published/here"));
        assert!(!ac.mmap);
        std::env::set_var("GBM_ARTIFACT_MMAP", "mapped");
        assert!(
            ArtifactConfig::new("/base").with_env().mmap,
            "unparsable GBM_ARTIFACT_MMAP keeps the default"
        );
        std::env::remove_var("GBM_ARTIFACT_DIR");
        std::env::remove_var("GBM_ARTIFACT_MMAP");

        std::env::remove_var("GBM_SERVE_WORKERS");
        std::env::remove_var("GBM_IVF_CELLS");
        std::env::remove_var("GBM_SCAN_NPROBE");
        std::env::remove_var("GBM_METRICS");
        std::env::remove_var("GBM_TRACE_SAMPLE");
    }
}
