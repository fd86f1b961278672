//! Binary checkpointing of model parameters.
//!
//! The paper's workflow has three phases — pre-train the base SNN,
//! decompose + train the TT-SNN, merge back for deployment — and each
//! phase hands weights to the next. This module provides the persistence
//! layer: a small, versioned, little-endian binary format holding an
//! ordered list of tensors (shape + `f32` data).
//!
//! Parameters are identified *positionally*: save and load must use the
//! same architecture (the same [`crate::SpikingModel::params`] order),
//! which the loader enforces by shape-checking every tensor.
//!
//! # Format history
//!
//! * **v2** (written by [`save_params`]): magic `TTSN`, `u32` version,
//!   `u64` tensor count, a **length table** (`u64` element count per
//!   tensor), then the tensors (`u32` rank, `u64` dims, `f32` data). The
//!   table lets the loader reject an architecture mismatch with a precise
//!   per-tensor error *before* reading megabytes of weights.
//! * **v1**: as v2 but without the length table. Still readable.
//! * **v0** (headerless, pre-versioning): the bare tensor list with no
//!   magic/version/count. Still readable — the loader detects the missing
//!   magic and falls back.

use std::io::{self, Read, Write};

use ttsnn_autograd::Var;
use ttsnn_tensor::Tensor;

const MAGIC: &[u8; 4] = b"TTSN";
const VERSION: u32 = 2;

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serializes parameter tensors to a writer in the current (v2) format.
/// Pass `&mut` of anything `Write` (a `File`, a `Vec<u8>`, …).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_params<W: Write>(params: &[Var], mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u64(&mut w, params.len() as u64)?;
    // v2 length table: element count per tensor, up front.
    for p in params {
        write_u64(&mut w, p.value().len() as u64)?;
    }
    for p in params {
        let t = p.value();
        write_u32(&mut w, t.ndim() as u32)?;
        for &d in t.shape() {
            write_u64(&mut w, d as u64)?;
        }
        for &v in t.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads one tensor record (`u32` rank, `u64` dims, `f32` data),
/// shape-checked against destination parameter `p`.
fn read_tensor<R: Read>(r: &mut R, p: &Var, i: usize) -> io::Result<Tensor> {
    let ndim = read_u32(r)? as usize;
    if ndim > 8 {
        return Err(bad(format!("tensor {i}: implausible rank {ndim}")));
    }
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        shape.push(read_u64(r)? as usize);
    }
    if shape != p.shape() {
        return Err(bad(format!(
            "tensor {i}: checkpoint shape {:?} vs model shape {:?}",
            shape,
            p.shape()
        )));
    }
    let n: usize = shape.iter().product();
    let mut data = vec![0.0f32; n];
    for v in &mut data {
        let mut b = [0u8; 4];
        r.read_exact(&mut b)?;
        *v = f32::from_le_bytes(b);
    }
    Tensor::from_vec(data, &shape).map_err(|e| bad(e.to_string()))
}

/// Decodes the tensor list shared by every format version. Callers
/// install the result only once the whole stream validated, so a partial
/// read never leaves the model half-loaded.
fn decode_tensor_list<R: Read>(params: &[Var], r: &mut R) -> io::Result<Vec<Tensor>> {
    let mut tensors = Vec::with_capacity(params.len());
    for (i, p) in params.iter().enumerate() {
        tensors.push(read_tensor(r, p, i)?);
    }
    Ok(tensors)
}

fn install(params: &[Var], tensors: Vec<Tensor>) {
    for (p, t) in params.iter().zip(tensors) {
        p.set_value(t);
    }
}

/// Loads a checkpoint into existing parameters, in order, shape-checked.
/// Understands the current v2 format plus the legacy v1 (no length table)
/// and v0 (headerless) streams.
///
/// # Errors
///
/// Returns an `InvalidData` error if the stream is not a checkpoint, the
/// version is unsupported, the parameter count differs, any length-table
/// entry disagrees with the destination parameter (v2 — reported before
/// any weight data is read), or any tensor's shape disagrees with the
/// destination parameter.
pub fn load_params<R: Read>(params: &[Var], mut r: R) -> io::Result<()> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        // v0: headerless tensor list — the four bytes we consumed are the
        // first tensor's rank field.
        let mut chained = magic.as_slice().chain(r);
        let tensors = decode_tensor_list(params, &mut chained)?;
        let mut probe = [0u8; 1];
        if chained.read(&mut probe)? != 0 {
            return Err(bad(format!(
                "headerless checkpoint has trailing data after {} tensors \
                 (architecture mismatch?)",
                params.len()
            )));
        }
        install(params, tensors);
        return Ok(());
    }
    let version = read_u32(&mut r)?;
    if version == 0 || version > VERSION {
        return Err(bad(format!(
            "unsupported checkpoint version {version} (this build reads v0..=v{VERSION})"
        )));
    }
    let count = read_u64(&mut r)? as usize;
    if count != params.len() {
        return Err(bad(format!(
            "checkpoint holds {count} tensors but the model has {}",
            params.len()
        )));
    }
    if version >= 2 {
        // Length table: catch architecture mismatches up front with a
        // per-tensor message instead of failing mid-stream.
        for (i, p) in params.iter().enumerate() {
            let len = read_u64(&mut r)? as usize;
            let want = p.value().len();
            if len != want {
                return Err(bad(format!(
                    "tensor {i}: checkpoint holds {len} elements but the model parameter \
                     has {want} (shape {:?}) — architecture mismatch?",
                    p.shape()
                )));
            }
        }
    }
    let tensors = decode_tensor_list(params, &mut r)?;
    install(params, tensors);
    Ok(())
}

/// Converts every parameter's value to `Arc`-**shared** tensor storage and
/// returns O(1) handles to the shared buffers, in
/// [`crate::SpikingModel::params`] order.
///
/// This is the serving cluster's "load weights once" primitive: the plan
/// builder calls it after [`load_params`] (and any TT→dense merge), ships
/// the returned handles to the other executor replicas (they are `Send` —
/// plain data, no autograd), and each replica installs them with
/// [`Network::install_frozen`](crate::Network::install_frozen). Afterwards **all** replicas' parameters alias one
/// buffer per tensor ([`Tensor::shares_storage_with`]); per-replica memory
/// is just membrane state. The calling model's own parameters are switched
/// to the shared storage too, so it serves from the same single copy.
///
/// Training afterwards remains safe — tensor storage is copy-on-write, an
/// optimizer step detaches a private copy — but defeats the sharing, so
/// treat shared parameters as frozen.
pub fn share_params(params: &[Var]) -> Vec<Tensor> {
    params
        .iter()
        .map(|p| {
            let shared = p.to_tensor().into_shared();
            p.set_value(shared.clone());
            shared
        })
        .collect()
}

/// Installs pre-decoded tensors into existing parameters, in order,
/// shape-checked — the replica-side half of [`share_params`]. Installing a
/// shared tensor is an O(1) handle copy; no weight data moves.
///
/// Nothing is installed unless the whole list validates (same
/// all-or-nothing contract as [`load_params`]).
///
/// # Errors
///
/// Returns an `InvalidData` error if the tensor count or any tensor's
/// shape disagrees with the destination parameters.
pub(crate) fn install_params(params: &[Var], tensors: &[Tensor]) -> io::Result<()> {
    if tensors.len() != params.len() {
        return Err(bad(format!(
            "plan holds {} tensors but the model has {} parameters",
            tensors.len(),
            params.len()
        )));
    }
    for (i, (p, t)) in params.iter().zip(tensors).enumerate() {
        if t.shape() != p.shape() {
            return Err(bad(format!(
                "tensor {i}: plan shape {:?} vs model shape {:?}",
                t.shape(),
                p.shape()
            )));
        }
    }
    for (p, t) in params.iter().zip(tensors) {
        p.set_value(t.clone());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_unit::ConvPolicy;
    use crate::model::SpikingModel;
    use crate::resnet::{ResNetConfig, ResNetSnn};
    use ttsnn_tensor::Rng;

    #[test]
    fn roundtrip_preserves_values() {
        let mut rng = Rng::seed_from(1);
        let params: Vec<Var> =
            (0..3).map(|i| Var::param(Tensor::randn(&[2 + i, 3], &mut rng))).collect();
        let mut buf = Vec::new();
        save_params(&params, &mut buf).unwrap();
        let originals: Vec<Tensor> = params.iter().map(|p| p.to_tensor()).collect();
        for p in &params {
            p.update_value(|t| t.map_inplace(|_| 0.0));
        }
        load_params(&params, buf.as_slice()).unwrap();
        for (p, o) in params.iter().zip(&originals) {
            assert_eq!(&p.to_tensor(), o);
        }
    }

    #[test]
    fn rejects_garbage_and_mismatches() {
        let p = [Var::param(Tensor::zeros(&[2, 2]))];
        assert!(load_params(&p, &b"nope"[..]).is_err());

        let mut buf = Vec::new();
        save_params(&p, &mut buf).unwrap();
        // wrong parameter count
        let q = [p[0].clone(), Var::param(Tensor::zeros(&[1]))];
        assert!(load_params(&q, buf.as_slice()).is_err());
        // wrong shape
        let r = [Var::param(Tensor::zeros(&[4]))];
        assert!(load_params(&r, buf.as_slice()).is_err());
        // truncated stream
        assert!(load_params(&p, &buf[..buf.len() - 2]).is_err());
    }

    #[test]
    fn version_check() {
        let p = [Var::param(Tensor::zeros(&[1]))];
        let mut buf = Vec::new();
        save_params(&p, &mut buf).unwrap();
        buf[4] = 99; // corrupt version field
        assert!(load_params(&p, buf.as_slice()).is_err());
    }

    /// Writes the given tensors in a legacy format: v0 has no header at
    /// all, v1 has magic + version + count but no length table.
    fn write_legacy(params: &[Var], version: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        if version >= 1 {
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&(params.len() as u64).to_le_bytes());
        }
        for p in params {
            let t = p.value();
            buf.extend_from_slice(&(t.ndim() as u32).to_le_bytes());
            for &d in t.shape() {
                buf.extend_from_slice(&(d as u64).to_le_bytes());
            }
            for &v in t.data() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    #[test]
    fn reads_legacy_v1_and_v0_streams() {
        let mut rng = Rng::seed_from(5);
        let src: Vec<Var> =
            (0..3).map(|i| Var::param(Tensor::randn(&[2, i + 1], &mut rng))).collect();
        for version in [0u32, 1] {
            let buf = write_legacy(&src, version);
            let dst: Vec<Var> = (0..3).map(|i| Var::param(Tensor::zeros(&[2, i + 1]))).collect();
            load_params(&dst, buf.as_slice()).unwrap();
            for (s, d) in src.iter().zip(&dst) {
                assert_eq!(s.to_tensor(), d.to_tensor(), "legacy v{version} roundtrip");
            }
        }
    }

    #[test]
    fn v0_trailing_data_is_rejected_without_installing() {
        let src = [Var::param(Tensor::ones(&[2]))];
        let mut buf = write_legacy(&src, 0);
        buf.extend_from_slice(&write_legacy(&[Var::param(Tensor::ones(&[1]))], 0));
        let dst = [Var::param(Tensor::zeros(&[2]))];
        assert!(load_params(&dst, buf.as_slice()).is_err());
        assert_eq!(dst[0].to_tensor().data(), &[0.0, 0.0], "failed load must not install");
    }

    #[test]
    fn v2_length_table_reports_mismatch_before_weights() {
        let src = [Var::param(Tensor::ones(&[4]))];
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        let dst = [Var::param(Tensor::zeros(&[5]))];
        let err = load_params(&dst, buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("4 elements") && msg.contains("architecture mismatch"),
            "length-table error should name the offending tensor, got: {msg}"
        );
    }

    #[test]
    fn share_and_install_alias_one_buffer_per_tensor() {
        let mut rng = Rng::seed_from(11);
        let src: Vec<Var> =
            (0..3).map(|i| Var::param(Tensor::randn(&[2, i + 2], &mut rng))).collect();
        let originals: Vec<Tensor> = src.iter().map(|p| p.to_tensor()).collect();
        let shared = share_params(&src);
        // The sharer's own params now alias the shared buffers...
        for (p, s) in src.iter().zip(&shared) {
            assert!(p.value().shares_storage_with(s), "sharer must serve from the shared copy");
        }
        // ...and so does a replica after install, with identical values.
        let replica: Vec<Var> = (0..3).map(|i| Var::param(Tensor::zeros(&[2, i + 2]))).collect();
        install_params(&replica, &shared).unwrap();
        for ((p, s), o) in replica.iter().zip(&shared).zip(&originals) {
            assert!(p.value().shares_storage_with(s), "replica must alias, not copy");
            assert_eq!(&p.to_tensor(), o);
        }
    }

    #[test]
    fn install_params_validates_before_installing() {
        let shared = share_params(&[Var::param(Tensor::ones(&[2, 2]))]);
        // Count mismatch.
        let two = [Var::param(Tensor::zeros(&[2, 2])), Var::param(Tensor::zeros(&[1]))];
        assert!(install_params(&two, &shared).is_err());
        // Shape mismatch: nothing may be installed (all-or-nothing).
        let wrong = [Var::param(Tensor::zeros(&[4]))];
        assert!(install_params(&wrong, &shared).is_err());
        assert_eq!(wrong[0].to_tensor().data(), &[0.0; 4]);
    }

    #[test]
    fn model_checkpoint_restores_behaviour() {
        let mut rng = Rng::seed_from(2);
        let cfg = ResNetConfig::resnet18(3, (8, 8), 16);
        let mut a = ResNetSnn::new(cfg.clone(), &ConvPolicy::Baseline, &mut rng);
        let mut b = ResNetSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
        let x = Var::constant(Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng));
        let ya = a.forward_timestep(&x, 0).unwrap().to_tensor();
        a.reset_state();
        // b differs from a before loading...
        let yb = b.forward_timestep(&x, 0).unwrap().to_tensor();
        b.reset_state();
        assert!(ya.max_abs_diff(&yb).unwrap() > 0.0 || ya == yb);
        // ...and matches exactly after.
        let mut buf = Vec::new();
        save_params(&a.params(), &mut buf).unwrap();
        load_params(&b.params(), buf.as_slice()).unwrap();
        let yb2 = b.forward_timestep(&x, 0).unwrap().to_tensor();
        assert_eq!(ya, yb2);
    }
}
