//! The single-writer / multi-reader publish protocol.
//!
//! The writer lands each generation as `artifact-<seq>.gbm` and then
//! swings a `CURRENT` pointer file at the new name, both through
//! [`Storage::write_atomic`] — for [`gbm_store::FileStorage`] the only
//! crash-safe file dance POSIX offers: write a temp file, `fsync` it,
//! `rename(2)` it into place, `fsync` the directory. Readers poll
//! `CURRENT`: because both renames are atomic, a reader observes either
//! the previous complete generation or the next complete generation,
//! never a torn file, no matter where the writer dies. Sequence numbers
//! are zero-padded to 20 digits so lexicographic directory order equals
//! publish order.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use gbm_store::Storage;

/// The pointer file naming the live artifact generation.
pub const CURRENT_FILE: &str = "CURRENT";

/// Artifact file extension.
pub const ARTIFACT_EXT: &str = "gbm";

/// `artifact-<seq, zero-padded>.gbm`.
pub fn artifact_file_name(seq: u64) -> String {
    format!("artifact-{seq:020}.{ARTIFACT_EXT}")
}

/// Inverse of [`artifact_file_name`]; `None` for foreign names.
pub fn parse_artifact_seq(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("artifact-")?.strip_suffix(".gbm")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Publishes one generation: the artifact lands atomically, then `CURRENT`
/// swings to it. Returns the published artifact path. Killing the writer
/// at any point leaves readers on the previous complete generation.
pub fn publish_artifact(
    storage: &dyn Storage,
    dir: &Path,
    seq: u64,
    bytes: &[u8],
) -> io::Result<PathBuf> {
    let name = artifact_file_name(seq);
    let path = dir.join(&name);
    storage.write_atomic(&path, bytes)?;
    storage.write_atomic(&dir.join(CURRENT_FILE), format!("{name}\n").as_bytes())?;
    Ok(path)
}

/// Reads the `CURRENT` pointer: `Ok(None)` when no generation has ever
/// been published, `Ok(Some((seq, path)))` for the live one.
pub fn read_current(dir: &Path) -> io::Result<Option<(u64, PathBuf)>> {
    match fs::read_to_string(dir.join(CURRENT_FILE)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
        Ok(s) => {
            let name = s.trim();
            match parse_artifact_seq(name) {
                Some(seq) => Ok(Some((seq, dir.join(name)))),
                None => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("CURRENT names a non-artifact: {name:?}"),
                )),
            }
        }
    }
}

/// Removes published generations older than `keep_from` (by sequence),
/// returning how many files were deleted. Writers call this to bound disk
/// growth; a reader that raced onto a reaped generation simply re-polls
/// `CURRENT`.
pub fn reap_artifacts(dir: &Path, keep_from: u64) -> io::Result<usize> {
    let mut reaped = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_artifact_seq(name) {
            if seq < keep_from && fs::remove_file(entry.path()).is_ok() {
                reaped += 1;
            }
        }
    }
    Ok(reaped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbm_store::FileStorage;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gbm-artifact-publish-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_names_sort_in_sequence_order_and_parse_back() {
        let names: Vec<String> = [1u64, 9, 10, 400, u64::MAX]
            .iter()
            .map(|&s| artifact_file_name(s))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names, "lexicographic = numeric");
        for (i, &seq) in [1u64, 9, 10, 400, u64::MAX].iter().enumerate() {
            assert_eq!(parse_artifact_seq(&names[i]), Some(seq));
        }
        assert_eq!(parse_artifact_seq("artifact-12.gbm"), None, "unpadded");
        assert_eq!(
            parse_artifact_seq("artifact-00000000000000000001.gbm.tmp"),
            None
        );
        assert_eq!(parse_artifact_seq(CURRENT_FILE), None);
    }

    #[test]
    fn publish_then_read_current_tracks_the_latest_generation() {
        let dir = temp_dir("latest");
        assert_eq!(read_current(&dir).unwrap(), None);
        publish_artifact(&FileStorage::new(), &dir, 1, b"gen one").unwrap();
        let (seq, path) = read_current(&dir).unwrap().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(fs::read(&path).unwrap(), b"gen one");
        publish_artifact(&FileStorage::new(), &dir, 2, b"gen two").unwrap();
        let (seq, path) = read_current(&dir).unwrap().unwrap();
        assert_eq!(seq, 2);
        assert_eq!(fs::read(&path).unwrap(), b"gen two");
        // both generations still on disk until reaped
        assert!(dir.join(artifact_file_name(1)).exists());
        assert_eq!(reap_artifacts(&dir, 2).unwrap(), 1);
        assert!(!dir.join(artifact_file_name(1)).exists());
        assert!(dir.join(artifact_file_name(2)).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_garbage_current_file_is_a_typed_error() {
        let dir = temp_dir("garbage");
        fs::write(dir.join(CURRENT_FILE), "what even is this\n").unwrap();
        assert!(read_current(&dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_tmp_files_do_not_confuse_the_reader() {
        let dir = temp_dir("tmp");
        publish_artifact(&FileStorage::new(), &dir, 3, b"published").unwrap();
        // simulate a writer killed mid-publish of the next generation
        fs::write(dir.join(format!("{}.tmp", artifact_file_name(4))), b"torn").unwrap();
        fs::write(dir.join("CURRENT.tmp"), b"torn pointer").unwrap();
        let (seq, path) = read_current(&dir).unwrap().unwrap();
        assert_eq!(seq, 3);
        assert_eq!(fs::read(path).unwrap(), b"published");
        fs::remove_dir_all(&dir).ok();
    }
}
