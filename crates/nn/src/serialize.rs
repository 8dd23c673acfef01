//! Binary checkpoint format for [`ParamSet`].
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   b"AMOE"            4 bytes
//! version u32                currently 1
//! count   u32                number of tensors
//! per tensor:
//!   name_len u32, name bytes (UTF-8)
//!   rows u32, cols u32
//!   rows*cols f32 values, row-major
//! ```
//!
//! Gradients and optimizer state are not checkpointed; a loaded model is
//! ready for inference or fresh fine-tuning. [`ParamSet::fill_from`]
//! builds a model around a loaded set's own buffers, so a model loaded
//! that way holds its weights once and no gradient.
//!
//! # Hostile-input hardening
//!
//! [`ParamSet::load`] is the trust boundary the serving stack's hot-swap
//! path crosses (`amoe-serve` reloads whatever file a `RELOAD` control
//! message names), so every corrupt-file shape maps to a typed
//! [`LoadError`] instead of a panic or an OOM:
//!
//! * wrong magic / unknown version → [`LoadError::BadMagic`] /
//!   [`LoadError::BadVersion`];
//! * a tensor header that declares more bytes than the file holds →
//!   [`LoadError::Truncated`] **before** any allocation, so an
//!   allocation-bomb header (absurd `rows*cols` in a small file) cannot
//!   reserve memory beyond the file's own size;
//! * mid-stream EOF → [`LoadError::Truncated`];
//! * NaN/Inf weight values → [`LoadError::NonFinite`] naming the tensor
//!   (a non-finite weight would silently poison every downstream score).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use amoe_tensor::Matrix;

use crate::ParamSet;

const MAGIC: &[u8; 4] = b"AMOE";
const VERSION: u32 = 1;

/// Errors raised while reading or writing a checkpoint.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic bytes — not a checkpoint file.
    BadMagic,
    /// File written by an unknown format version.
    BadVersion(u32),
    /// The file ends before the data its headers declare.
    Truncated,
    /// A tensor header or name failed validation.
    Corrupt(String),
    /// A tensor contains NaN or infinite values (names the tensor).
    NonFinite(String),
    /// Loaded tensors don't match the receiving parameter set.
    Mismatch(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::BadMagic => write!(f, "not an AMOE checkpoint (bad magic)"),
            LoadError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            LoadError::Truncated => write!(
                f,
                "truncated checkpoint (file shorter than headers declare)"
            ),
            LoadError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            LoadError::NonFinite(name) => {
                write!(f, "checkpoint tensor {name:?} contains non-finite values")
            }
            LoadError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        // A short read is a structural property of the file, not a
        // transient I/O condition — surface it as the typed variant.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            LoadError::Truncated
        } else {
            LoadError::Io(e)
        }
    }
}

impl ParamSet {
    /// Writes all parameter values to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), LoadError> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(self.entries.len() as u32).to_le_bytes())?;
        for e in &self.entries {
            let name = e.name.as_bytes();
            w.write_all(&(name.len() as u32).to_le_bytes())?;
            w.write_all(name)?;
            w.write_all(&(e.value.rows() as u32).to_le_bytes())?;
            w.write_all(&(e.value.cols() as u32).to_le_bytes())?;
            for &v in e.value.as_slice() {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        w.flush()?;
        Ok(())
    }

    /// Writes the checkpoint to a sibling temp file and renames it
    /// into place, so a concurrent reader (the serving hot-swap path
    /// polls checkpoint paths it is told to `RELOAD`) observes either
    /// the complete old file or the complete new file — never a torn
    /// prefix. The temp file lives in the target's directory because
    /// `rename` is only atomic within one filesystem.
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> Result<(), LoadError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        self.save(&tmp)?;
        std::fs::rename(&tmp, path).map_err(|e| {
            // Leave no orphan on a failed rename.
            let _ = std::fs::remove_file(&tmp);
            LoadError::Io(e)
        })
    }

    /// Reads a checkpoint into a fresh set (names and shapes come from
    /// the file). See the module docs for the corrupt-file contract.
    pub fn load(path: impl AsRef<Path>) -> Result<ParamSet, LoadError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut r = BufReader::new(file);
        // Bytes of payload the file can still supply; every header read
        // debits it so a tensor's declared size can be checked against
        // what is actually left *before* allocating for it.
        let mut remaining = file_len;
        let mut debit = |n: u64| -> Result<(), LoadError> {
            if n > remaining {
                return Err(LoadError::Truncated);
            }
            remaining -= n;
            Ok(())
        };

        let mut magic = [0u8; 4];
        debit(4)?;
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(LoadError::BadMagic);
        }
        debit(4)?;
        let version = read_u32(&mut r)?;
        if version != VERSION {
            return Err(LoadError::BadVersion(version));
        }
        debit(4)?;
        let count = read_u32(&mut r)? as usize;
        if count > 1_000_000 {
            return Err(LoadError::Corrupt(format!(
                "implausible tensor count {count}"
            )));
        }
        let mut ps = ParamSet::new();
        for _ in 0..count {
            debit(4)?;
            let name_len = read_u32(&mut r)? as usize;
            if name_len > 4096 {
                return Err(LoadError::Corrupt(format!(
                    "implausible name length {name_len}"
                )));
            }
            debit(name_len as u64)?;
            let mut name = vec![0u8; name_len];
            r.read_exact(&mut name)?;
            let name = String::from_utf8(name)
                .map_err(|_| LoadError::Corrupt("non-UTF8 tensor name".into()))?;
            debit(8)?;
            let rows = read_u32(&mut r)? as usize;
            let cols = read_u32(&mut r)? as usize;
            if rows == 0 || cols == 0 || rows.saturating_mul(cols) > 500_000_000 {
                return Err(LoadError::Corrupt(format!(
                    "implausible shape {rows}x{cols} for {name:?}"
                )));
            }
            let total = rows * cols;
            // Allocation-bomb guard: refuse before reserving anything if
            // the file cannot possibly hold this tensor's data.
            debit(total as u64 * 4)?;
            let mut data = Vec::with_capacity(total);
            let mut buf = [0u8; 4096 * 4];
            let mut left = total;
            while left > 0 {
                let take = left.min(4096);
                let bytes = &mut buf[..take * 4];
                r.read_exact(bytes)?;
                for chunk in bytes.chunks_exact(4) {
                    let v = f32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
                    if !v.is_finite() {
                        return Err(LoadError::NonFinite(name));
                    }
                    data.push(v);
                }
                left -= take;
            }
            ps.add(name, Matrix::from_vec(rows, cols, data));
        }
        Ok(ps)
    }

    /// Copies values from another set into `self`'s buffers in place,
    /// matching by name. Every parameter of `self` must be present in
    /// `other` with the same shape (extra tensors in `other` are
    /// ignored).
    pub fn load_values_from(&mut self, other: &ParamSet) -> Result<(), LoadError> {
        for e in &mut self.entries {
            let src = other
                .entries
                .iter()
                .find(|o| o.name == e.name)
                .ok_or_else(|| missing(&e.name))?;
            check_shape(&e.name, src.value.shape(), e.value.shape())?;
            e.value.as_mut_slice().copy_from_slice(src.value.as_slice());
        }
        Ok(())
    }

    /// Runs `register` (a model's constructor, say) on an empty set
    /// that takes its values from `loaded`: each
    /// [`ParamSet::add_with`] moves in the loaded tensor of that name
    /// after checking its shape, and its initialiser never runs, so the
    /// returned set holds the checkpoint's buffers and nothing else. A
    /// registered name `loaded` lacks, or holds at another shape, is a
    /// [`LoadError::Mismatch`]; tensors no registration claims are
    /// dropped.
    pub fn fill_from<T>(
        loaded: ParamSet,
        register: impl FnOnce(&mut ParamSet) -> T,
    ) -> Result<(ParamSet, T), LoadError> {
        let mut ps = ParamSet {
            entries: Vec::with_capacity(loaded.entries.len()),
            fill: Some(Fill {
                loaded: loaded.entries,
                error: None,
            }),
        };
        let built = register(&mut ps);
        match ps.fill.take().and_then(|f| f.error) {
            Some(e) => Err(e),
            None => Ok((ps, built)),
        }
    }
}

/// The state of one [`ParamSet::fill_from`] registration.
pub(crate) struct Fill {
    /// The loaded tensors no registration has claimed yet, in file
    /// order (which is registration order for a model's own export).
    loaded: Vec<crate::params::ParamEntry>,
    /// The first missing or mis-shaped tensor.
    error: Option<LoadError>,
}

impl Fill {
    /// Moves out the loaded tensor `name`. A missing or mis-shaped one
    /// records the first error and stands in as zeros, since the
    /// registration runs to its end before [`ParamSet::fill_from`]
    /// reports it.
    pub(crate) fn claim(&mut self, name: &str, rows: usize, cols: usize) -> Matrix {
        let claimed = match self.loaded.iter().position(|e| e.name == name) {
            None => Err(missing(name)),
            Some(i) => {
                let value = self.loaded.remove(i).value;
                check_shape(name, value.shape(), (rows, cols)).map(|()| value)
            }
        };
        claimed.unwrap_or_else(|e| {
            self.error.get_or_insert(e);
            Matrix::zeros(rows, cols)
        })
    }
}

fn missing(name: &str) -> LoadError {
    LoadError::Mismatch(format!("missing tensor {name:?}"))
}

fn check_shape(name: &str, got: (usize, usize), want: (usize, usize)) -> Result<(), LoadError> {
    if got == want {
        Ok(())
    } else {
        Err(LoadError::Mismatch(format!(
            "tensor {name:?} has shape {got:?}, expected {want:?}"
        )))
    }
}

fn read_u32(r: &mut impl Read) -> Result<u32, LoadError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoe_tensor::Rng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("amoe_ckpt_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn save_load_roundtrip() {
        let mut rng = Rng::seed_from(1);
        let mut ps = ParamSet::new();
        ps.add("a.w", rng.normal_matrix(3, 4, 0.0, 1.0));
        ps.add("a.b", rng.normal_matrix(1, 4, 0.0, 1.0));
        let path = tmp("roundtrip");
        ps.save(&path).unwrap();
        let loaded = ParamSet::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.name(crate::ParamId(0)), "a.w");
        assert_eq!(
            loaded.value(loaded.find("a.w").unwrap()),
            ps.value(ps.find("a.w").unwrap())
        );
        assert_eq!(
            loaded.value(loaded.find("a.b").unwrap()),
            ps.value(ps.find("a.b").unwrap())
        );
    }

    #[test]
    fn save_atomic_roundtrip_and_no_temp_left_behind() {
        let mut rng = Rng::seed_from(21);
        let mut ps = ParamSet::new();
        ps.add("w", rng.normal_matrix(5, 3, 0.0, 1.0));
        let path = tmp("atomic_roundtrip");
        ps.save_atomic(&path).unwrap();
        let loaded = ParamSet::load(&path).unwrap();
        assert_eq!(
            loaded.value(loaded.find("w").unwrap()),
            ps.value(ps.find("w").unwrap())
        );
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp_name).exists(),
            "temp file left behind"
        );
        std::fs::remove_file(&path).ok();
    }

    /// The regression the rename dance exists for: a reader
    /// interleaved with repeated re-exports of the same path must
    /// never observe a torn file. With a plain `save` (truncate then
    /// stream) the reader races the writer and sees
    /// `Truncated`/`BadMagic`; with `save_atomic` every load succeeds
    /// with a complete, internally consistent checkpoint.
    #[test]
    fn interleaved_reader_never_sees_torn_checkpoint() {
        let path = tmp("atomic_interleaved");
        // Two distinguishable generations of plausible size, so a torn
        // read has plenty of partial states to land on.
        let mk = |seed: u64| {
            let mut rng = Rng::seed_from(seed);
            let mut ps = ParamSet::new();
            ps.add("emb.w", rng.normal_matrix(64, 16, 0.0, 1.0));
            ps.add("tower.w", rng.normal_matrix(32, 32, 0.0, 1.0));
            ps
        };
        let gens = [mk(1), mk(2)];
        gens[0].save_atomic(&path).unwrap();

        let reader_path = path.clone();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader_stop = std::sync::Arc::clone(&stop);
        let reader = std::thread::spawn(move || {
            let mut loads = 0usize;
            while !reader_stop.load(std::sync::atomic::Ordering::Relaxed) {
                let ps = ParamSet::load(&reader_path)
                    .unwrap_or_else(|e| panic!("reader saw torn checkpoint: {e}"));
                assert_eq!(ps.len(), 2, "partial tensor set");
                loads += 1;
            }
            loads
        });

        for i in 0..200 {
            gens[i % 2].save_atomic(&path).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let loads = reader.join().expect("reader panicked");
        assert!(loads > 0, "reader never overlapped the writer");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOPE....").unwrap();
        let err = ParamSet::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, LoadError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let path = tmp("badversion");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = ParamSet::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, LoadError::BadVersion(99)));
    }

    #[test]
    fn truncated_file_rejected() {
        let mut rng = Rng::seed_from(2);
        let mut ps = ParamSet::new();
        ps.add("w", rng.normal_matrix(4, 4, 0.0, 1.0));
        let path = tmp("trunc");
        ps.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let err = ParamSet::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, LoadError::Truncated), "got {err:?}");
    }

    #[test]
    fn truncated_header_rejected() {
        // Cut inside the per-tensor header (after the name, before cols).
        let path = tmp("trunc_header");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one tensor
        bytes.extend_from_slice(&1u32.to_le_bytes()); // name_len
        bytes.push(b'w');
        bytes.extend_from_slice(&2u32.to_le_bytes()); // rows, then EOF
        std::fs::write(&path, &bytes).unwrap();
        let err = ParamSet::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, LoadError::Truncated), "got {err:?}");
    }

    #[test]
    fn allocation_bomb_header_rejected_before_allocating() {
        // A tiny file whose tensor header declares ~1.6 GB of weight
        // data. The loader must refuse from the file-size check alone —
        // if it tried to allocate first, this test would OOM the runner.
        let path = tmp("allocbomb");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one tensor
        bytes.extend_from_slice(&1u32.to_le_bytes()); // name_len
        bytes.push(b'w');
        bytes.extend_from_slice(&20_000u32.to_le_bytes()); // rows
        bytes.extend_from_slice(&20_000u32.to_le_bytes()); // cols
        std::fs::write(&path, &bytes).unwrap();
        let err = ParamSet::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, LoadError::Truncated), "got {err:?}");
    }

    #[test]
    fn implausible_shape_rejected() {
        // rows*cols over the hard cap is Corrupt even if a (hypothetical)
        // file were large enough.
        let path = tmp("absurdshape");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'w');
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // cols
        std::fs::write(&path, &bytes).unwrap();
        let err = ParamSet::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, LoadError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn zero_dim_shape_rejected() {
        let path = tmp("zerodim");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'w');
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = ParamSet::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, LoadError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn non_finite_values_rejected_with_tensor_name() {
        let mut ps = ParamSet::new();
        ps.add("fine", Matrix::ones(2, 2));
        ps.add("bad.w", Matrix::ones(1, 3));
        let path = tmp("nonfinite");
        ps.save(&path).unwrap();
        // Corrupt one value of the second tensor in place with NaN.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&f32::NAN.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = ParamSet::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        match err {
            LoadError::NonFinite(name) => assert_eq!(name, "bad.w"),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn load_values_from_matches_by_name() {
        let mut rng = Rng::seed_from(3);
        let mut src = ParamSet::new();
        src.add("x", rng.normal_matrix(2, 2, 0.0, 1.0));
        src.add("y", rng.normal_matrix(1, 3, 0.0, 1.0));
        let mut dst = ParamSet::new();
        dst.add("y", Matrix::zeros(1, 3));
        dst.load_values_from(&src).unwrap();
        assert_eq!(
            dst.value(dst.find("y").unwrap()),
            src.value(src.find("y").unwrap())
        );
    }

    #[test]
    fn load_values_from_copies_into_the_existing_buffer() {
        let mut src = ParamSet::new();
        src.add("y", Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let mut dst = ParamSet::new();
        let y = dst.add("y", Matrix::zeros(1, 3));
        let buffer = dst.value(y).as_slice().as_ptr();
        dst.load_values_from(&src).unwrap();
        assert_eq!(dst.value(y).as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(dst.value(y).as_slice().as_ptr(), buffer);
    }

    #[test]
    fn fill_from_moves_loaded_tensors_in_and_runs_no_initialiser() {
        let mut rng = Rng::seed_from(4);
        let mut loaded = ParamSet::new();
        loaded.add("a", rng.normal_matrix(2, 3, 0.0, 1.0));
        loaded.add("extra", Matrix::ones(4, 4));
        loaded.add("b", rng.normal_matrix(1, 3, 0.0, 1.0));
        let want_a = loaded.value(loaded.find("a").unwrap()).clone();
        let buffer_b = loaded.value(loaded.find("b").unwrap()).as_slice().as_ptr();
        let never = || -> Matrix { panic!("an initialiser ran during a fill") };
        let (ps, ids) = ParamSet::fill_from(loaded, |ps| {
            (ps.add_with("b", 1, 3, never), ps.add_with("a", 2, 3, never))
        })
        .unwrap();
        // Registration order, not file order; the extra tensor is gone.
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.name(ids.0), "b");
        assert_eq!(ps.value(ids.1), &want_a);
        assert_eq!(ps.value(ids.0).as_slice().as_ptr(), buffer_b);
        assert!(ps.fill.is_none());
        assert!(ps.entries.iter().all(|e| e.grad.is_none()));
    }

    #[test]
    fn fill_from_rejects_missing_and_misshaped_tensors() {
        let loaded = || {
            let mut ps = ParamSet::new();
            ps.add("w", Matrix::zeros(2, 3));
            ps
        };
        let missing = ParamSet::fill_from(loaded(), |ps| {
            ps.add_with("w", 2, 3, || Matrix::zeros(2, 3));
            ps.add_with("u", 1, 1, || Matrix::zeros(1, 1));
        });
        assert!(matches!(missing, Err(LoadError::Mismatch(m)) if m.contains("\"u\"")));
        let misshaped = ParamSet::fill_from(loaded(), |ps| {
            ps.add_with("w", 3, 2, || Matrix::zeros(3, 2));
        });
        assert!(matches!(misshaped, Err(LoadError::Mismatch(m)) if m.contains("shape")));
    }

    #[test]
    fn load_values_shape_mismatch_errors() {
        let mut src = ParamSet::new();
        src.add("y", Matrix::zeros(2, 3));
        let mut dst = ParamSet::new();
        dst.add("y", Matrix::zeros(1, 3));
        assert!(matches!(
            dst.load_values_from(&src),
            Err(LoadError::Mismatch(_))
        ));
    }
}
