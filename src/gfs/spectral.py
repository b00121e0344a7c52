"""FFT spectral differentiation on the standard interval [-pi, pi].

Nodes 0..N-1 are used (the node-N value equals node 0 by periodicity);
wavenumbers are the integers -ceil(N/2)+1..floor(N/2). The samples are
real, so a real FFT (``rfft``/``irfft``) over the wavenumbers 0..floor(N/2)
carries the whole spectrum at about half the cost of the complex pair. For
even N and odd derivative order the Nyquist mode's contribution is zeroed,
the standard choice for real signals: its multiplier (i N/2)^order is then
purely imaginary, and ``irfft`` keeps only the real part of that bin.
"""

from __future__ import annotations

import functools

import numpy as np

from gfs.grid import PER_N_CACHE, integer_arg


@functools.lru_cache(maxsize=2 * PER_N_CACHE)
def _multiplier(N, order):
    """(i k)^order over the wavenumbers k = 0..floor(N/2): one read-only array per (N, order)."""
    ik = 1j * np.arange(N // 2 + 1)
    # numpy's complex power is slow and gives i k itself at order 1
    mult = ik if order == 1 else ik ** order
    mult.flags.writeable = False
    return mult


def spectral_derivative_periodic(values, order=1):
    """Derivative of a periodic signal sampled at nodes 0..N of [-pi, pi].

    ``values`` has length N+1 with values[N] the periodic copy of
    values[0]; the returned array has the same layout.
    """
    order = integer_arg(order, "order", 0)
    values = np.asarray(values, dtype=float)
    N = values.size - 1
    du = np.empty(N + 1)
    np.fft.irfft(np.fft.rfft(values[:N]) * _multiplier(N, order), n=N, out=du[:N])
    du[N] = du[0]
    return du
