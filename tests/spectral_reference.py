"""Full-complex DFT forms of the spectral operators.

``blockvi`` runs circular convolution and the phase prescription on the real
half spectrum (``rfft2``/``irfft2``).  These are the same maps written with the
complex ``np.fft.fft2``/``ifft2`` over every bin, as the formulas read, and
serve as references for the half-spectrum implementations.
"""

import numpy as np

# extents of the bit-for-bit checks against the public rfft2/irfft2
SPECTRAL_EXTENTS = [(8, 8), (7, 9), (16, 15), (1, 8), (32, 32)]


def centered_kernel(kernel, rows, cols):
    """The kernel zero-padded to rows x cols with its center at the origin."""
    kr, kc = kernel.shape
    padded = np.zeros((rows, cols))
    padded[:kr, :kc] = kernel
    return np.roll(padded, (-(kr // 2), -(kc // 2)), axis=(0, 1))


def full_transfer(kernel, rows, cols):
    """Complex transfer function of the centered kernel over every DFT bin."""
    return np.fft.fft2(centered_kernel(kernel, rows, cols))


def full_convolution(img, transfer):
    """Circular convolution of ``img`` with the kernel of ``transfer``; pass
    ``np.conj(transfer)`` for the adjoint."""
    return np.fft.ifft2(np.fft.fft2(img) * transfer).real


def full_phase(y, theta):
    """y - IDFT(|DFT y| max(cos(angle(DFT y) - theta), 0) exp(i theta))."""
    spectrum = np.fft.fft2(y)
    aligned = (np.abs(spectrum)
               * np.maximum(np.cos(np.angle(spectrum) - theta), 0.0)
               * np.exp(1j * theta))
    return y - np.fft.ifft2(aligned).real
