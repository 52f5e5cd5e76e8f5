"""Linear (zero-padded, non-wrapping) convolution against a kernel table.

Two interchangeable paths:

* ``direct`` — one tap loop, :func:`_conv_inner`, gives J * x on the inner
  window of x's box, the cells at least the kernel reach from every edge.
  It reads x in place, laid out flat, so an offset is one contiguous
  window. The full-box convolution is that loop on the input zero-padded
  by the reach. The table is even (``Kernel`` checks it bit for bit), so
  the loop folds mirrored taps: for each quarter tap ``(a, b)``
  (``Kernel.quarter_taps``: offsets >= 0, row-major order) every cell adds
  ``c * ((x(+a,+b) + x(-a,+b)) + (x(+a,-b) + x(-a,-b)))``, with one image
  for a zero component; the row fold is built once per row offset. That
  is one multiply per quarter tap instead of one per tap. Every cell sums
  the same terms in the same fixed order, whatever its position in the
  box (an out-of-box cell adds an exact zero), so the path is
  translation-equivariant to the bit, monotone for nonnegative weights,
  a lone value ``v`` among zeros gives exactly ``(c * v) * h^dim``, and a
  window cell gets the same bits from the window loop as from the
  full-box convolution. A single cell at least the reach m from every
  edge is the loop on the ``(2m+1)^dim`` block around it, with the same
  bits. The loop's three work arrays (accumulator, term, fold strip)
  start on 64-byte cache lines, so no store straddles two lines;
  ``malloc`` gives only 16-byte alignment, and the offset it picks would
  otherwise set the loop's time.
  The bits do not depend on where any array lands, the input included.
* ``fast``   — FFT on a box zero-padded by one kernel reach and rounded up
  to a 5-smooth length L >= n + m per axis (n the box length, m the
  reach). That is enough for an exact linear convolution on the box: the
  flipped kernel sits on [0, 2m] and the output is read on [m, m + n), so
  every circular index j - e lies in [-m, n - 1 + m], and with L >= n + m
  it wraps only into [n, L), where the input is zero. When L < 2m + 1 the
  transform crops the kernel to [0, L); a cropped tap e >= L >= n + m
  reaches only j - e <= -1, outside the input, so it would add nothing to
  a kept cell anyway. The kernel spectrum is cached per padded shape. The
  path runs the 1-D transforms of ``rfftn``/``irfftn`` one axis at a time
  (``rfft`` on the last axis, ``fft`` on axis 0, and back) through two
  buffers, the half-spectrum and the real padded box; its bits equal the
  one-shot ``irfftn(rfftn(...))``. Inside a :func:`fft_buffers` block the
  buffers are reused from call to call; outside one they are allocated
  per call.

Every path writes into ``out=`` when it is given and returns it.

``path='both'`` runs the two and raises if they disagree beyond 1e-10 in
sup norm, returning the direct result.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import NumericalFailure
from .kernels import Kernel

__all__ = ["convolve", "fft_buffers", "next_fast_len"]

PATHS = ("direct", "fast", "both")


@lru_cache(maxsize=256)
def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n."""
    if n <= 2:
        return max(n, 1)
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # round the power-of-two factor up
            rem = -(-n // p35)  # ceil
            p2 = 1 << max(rem - 1, 0).bit_length()
            candidate = p2 * p35
            if n <= candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


_LINE = 64  # bytes in a cache line


def _line_aligned(n: int) -> np.ndarray:
    """An uninitialised float64 array of n cells whose data starts on a
    64-byte line: an over-allocation by 7 cells, sliced at the first line
    boundary."""
    buf = np.empty(n + _LINE // 8 - 1)
    skip = -buf.ctypes.data % _LINE // 8
    return buf[skip : skip + n]


def _conv_inner(x: np.ndarray, k: Kernel) -> np.ndarray:
    """J * x on the inner window of x's box, the cells at least ``k.reach``
    from every edge, read from x in place."""
    # x is laid out flat, so offset d reads one contiguous window shifted by
    # d's flat offset. Output rows keep x's row length, and the extra
    # columns (read across the row seam) are dropped at the end. The row
    # fold x(+a) + x(-a) is a strip m cells longer than the window's flat
    # span at either end, so that its column shifts by -m..m stay inside x.
    m = k.reach
    inner = tuple(n - 2 * m for n in x.shape)
    flat = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    row = x.shape[1] if x.ndim == 2 else 0  # flat stride of a row offset
    size = flat.size - 2 * m * (row + 1)  # first to last window cell
    span = size + 2 * m
    lo = m * row  # strip start: the first window cell's flat index minus m
    out = _line_aligned(inner[0] * row if row else size)
    out.fill(0.0)  # +0.0, as np.zeros gave: a cell of -0.0 terms sums to +0.0
    acc = out[:size]
    tmp = _line_aligned(size)
    strip = _line_aligned(span)
    fold, last = flat[lo : lo + span], 0
    for d, c in k.quarter_taps:
        a, b = d if x.ndim == 2 else (0, d[0])
        if a != last:
            up, down = lo + a * row, lo - a * row
            fold, last = np.add(flat[up : up + span], flat[down : down + span], out=strip), a
        if b:
            np.add(fold[m + b : m + b + size], fold[m - b : m - b + size], out=tmp)
            np.multiply(tmp, c, out=tmp)
        else:
            np.multiply(fold[m : m + size], c, out=tmp)
        acc += tmp
    if row:
        out = out.reshape(inner[0], row)[:, : inner[1]]
    return out * k.h**k.dim


def _conv_direct(arr: np.ndarray, k: Kernel) -> np.ndarray:
    """J * arr on the whole box: the inner window of arr zero-padded by the
    reach."""
    return _conv_inner(np.pad(arr, k.reach), k)


def _kernel_spectrum(k: Kernel, shape_full: tuple) -> np.ndarray:
    key = ("rfft", shape_full)
    spec = k._fft_cache.get(key)
    if spec is None:
        flipped = np.flip(k.weights)
        axes = tuple(range(k.dim))
        spec = np.fft.rfftn(flipped, s=shape_full, axes=axes)
        k._fft_cache[key] = spec
    return spec


_BUFFERS = "buffers"  # key of the parked buffers; spectra use ("rfft", shape)


@contextmanager
def fft_buffers(k: Kernel):
    """Reuse the fast path's transform buffers for ``k`` inside the block.

    The buffers are parked on ``k._fft_cache`` by padded shape and dropped
    when the outermost block exits; nested blocks share them.
    """
    if _BUFFERS in k._fft_cache:
        yield
        return
    k._fft_cache[_BUFFERS] = {}
    try:
        yield
    finally:
        del k._fft_cache[_BUFFERS]


def _fft_scratch(k: Kernel, shape_full: tuple) -> tuple:
    parked = k._fft_cache.get(_BUFFERS)
    bufs = None if parked is None else parked.get(shape_full)
    if bufs is None:
        half = shape_full[:-1] + (shape_full[-1] // 2 + 1,)
        bufs = (np.empty(half, dtype=np.complex128), np.empty(shape_full))
        if parked is not None:
            parked[shape_full] = bufs
    return bufs


def _conv_fft(arr: np.ndarray, k: Kernel, out: np.ndarray | None = None) -> np.ndarray:
    m = k.reach
    shape_full = tuple(next_fast_len(n + m) for n in arr.shape)
    spec = _kernel_spectrum(k, shape_full)
    cbuf, rbuf = _fft_scratch(k, shape_full)
    n0, nlast = arr.shape[0], shape_full[-1]
    rows = slice(m, m + n0)
    if arr.ndim == 1:
        np.fft.rfft(arr, n=nlast, out=cbuf)
        np.multiply(cbuf, spec, out=cbuf)
        np.fft.irfft(cbuf, n=nlast, out=rbuf)
        return np.multiply(rbuf[rows], k.h**k.dim, out=out)
    # rfftn: rfft along the last axis, then fft along axis 0 over the
    # zero pad rows (the in-place fft overwrites them, so re-zero each call)
    np.fft.rfft(arr, n=nlast, axis=1, out=cbuf[:n0])
    cbuf[n0:] = 0.0
    np.fft.fft(cbuf, axis=0, out=cbuf)
    np.multiply(cbuf, spec, out=cbuf)
    # irfftn in reverse, with the last-axis transform only on the kept rows
    np.fft.ifft(cbuf, axis=0, out=cbuf)
    np.fft.irfft(cbuf[rows], n=nlast, axis=1, out=rbuf[rows])
    return np.multiply(rbuf[rows, m : m + arr.shape[1]], k.h**k.dim, out=out)


def convolve(
    arr: np.ndarray, k: Kernel, path: str = "fast", out: np.ndarray | None = None
) -> np.ndarray:
    """(J * arr)(x) = sum_y J(x - y) arr(y) h^dim on the array's box.

    With ``out`` the result is written there and ``out`` is returned.
    """
    if path not in PATHS:
        raise NumericalFailure(f"unknown convolution path {path!r}")
    arr = np.asarray(arr, dtype=np.float64)
    if path == "fast":
        return _conv_fft(arr, k, out)
    a = _conv_direct(arr, k)
    if path == "both":
        b = _conv_fft(arr, k)
        gap = float(np.max(np.abs(a - b))) if a.size else 0.0
        if gap > 1e-10:
            raise NumericalFailure(
                f"direct/fast convolution paths disagree: sup diff {gap:.3e} > 1e-10"
            )
    if out is None:
        return a
    out[...] = a
    return out
