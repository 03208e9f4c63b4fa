"""Seeded inputs for the fit workloads, written by the benchmark's own CIVT writer.

The writer follows the documented CIVT layout (little-endian): magic
``CIVT``, u32 version=1, u32 nx, ny, nz, m, f64 t_lo, t_hi, then n*m
float32 intensities, voxel-major with x fastest and time contiguous per
voxel. It does not use the program's writer, so an input is byte-identical
across commits for a given seed.

Regenerate one input by hand with
``python3 perfbench/inputs.py --workload sweep --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import struct
from pathlib import Path

import numpy as np

import workloads

T_LO, T_HI = 0.0, 1.0
_BLOCK = 2000   # voxels generated per block, bounds the generator's memory


def write_civt_header(fh, dims, m: int) -> None:
    nx, ny, nz = dims
    fh.write(b"CIVT")
    fh.write(struct.pack("<5I", 1, nx, ny, nz, m))
    fh.write(struct.pack("<2d", T_LO, T_HI))


def read_civt(path):
    """(dims, m, t_lo, t_hi, float32 series memmap (n, m)) of a CIVT file."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"CIVT":
            raise ValueError(f"{path} is not a CIVT volume")
        version, nx, ny, nz, m = struct.unpack("<5I", fh.read(20))
        if version != 1:
            raise ValueError(f"unsupported CIVT version {version}")
        t_lo, t_hi = struct.unpack("<2d", fh.read(16))
    series = np.memmap(path, dtype="<f4", mode="r", offset=40,
                       shape=(nx * ny * nz, m))
    return (nx, ny, nz), m, t_lo, t_hi, series


def planted_truth(spec, seed: int):
    """Per-voxel truth: planted cluster 0..planted-1, or -1 for background.

    Cluster sizes are balanced and the background count is exact, so the
    workload's shape does not drift with the seed.
    """
    rng = np.random.default_rng([seed, 0])
    n = spec.n
    truth = np.arange(n) % spec.planted
    truth[: int(round(spec.background * n))] = -1
    return truth[rng.permutation(n)]


def write_volume(spec, seed: int, path) -> np.ndarray:
    """Write the workload's CIVT volume for `seed`; return the planted truth."""
    truth = planted_truth(spec, seed)
    t = np.linspace(T_LO, T_HI, spec.m)
    # the mean curves do not depend on the seed, so neither does the
    # clusters' geometry, nor (much) the work the sweep does
    c = np.arange(spec.planted)
    curves = np.sin(2.0 * np.pi * (c[:, None] + 1) * t[None, :]
                    + 2.0 * np.pi * c[:, None] / spec.planted)
    rng = np.random.default_rng([seed, 1])
    curves = np.vstack([curves, np.zeros(spec.m)])   # row -1: background
    noise_sd = np.where(truth < 0, spec.background_sigma, spec.sigma)
    with open(path, "wb") as fh:
        write_civt_header(fh, spec.dims, spec.m)
        for lo in range(0, spec.n, _BLOCK):
            hi = min(lo + _BLOCK, spec.n)
            b = hi - lo
            block = (curves[truth[lo:hi]]
                     + 100.0 + 5.0 * rng.standard_normal((b, 1))
                     + 2.0 * rng.standard_normal((b, 1)) * t[None, :]
                     + noise_sd[lo:hi, None] * rng.standard_normal((b, spec.m)))
            fh.write(block.astype("<f4").tobytes())
    return truth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "ingest"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = workloads.get(args.workload)
    write_volume(spec, args.seed, out / "volume.civt")
    print(f"wrote {out / 'volume.civt'} ({spec.n} voxels x {spec.m} frames)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
